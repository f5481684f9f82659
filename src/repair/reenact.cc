// Reenactment planning and replay execution (see reenact.h for the
// contract, DESIGN.md §5i for the design).
#include "repair/reenact.h"

#include <algorithm>
#include <chrono>
#include <future>

#include "concurrency/lock_manager.h"
#include "engine/database.h"
#include "obs/catalog.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "wire/connection.h"

namespace irdb::repair {

const char* DemoteReasonName(DemoteReason r) {
  switch (r) {
    case DemoteReason::kTrackingGap: return "tracking_gap";
    case DemoteReason::kNoJournal: return "no_journal";
    case DemoteReason::kDiverged: return "diverged";
    case DemoteReason::kDownstream: return "downstream";
    case DemoteReason::kReplayFailed: return "replay_failed";
  }
  return "?";
}

namespace {

// Kept edges of the analysis graph with both endpoints in `members`, as
// reader -> sorted deduplicated writer lists. Every edge points from a later
// reader to an earlier writer, so walking readers in ascending id visits
// each one after all of its in-set writers — the order both demotion
// propagation and replay rely on.
std::map<int64_t, std::vector<int64_t>> KeptWritersWithin(
    const DependencyAnalysis& analysis, const std::set<int64_t>& members,
    const DbaPolicy& policy) {
  std::map<int64_t, std::vector<int64_t>> writers_of;
  for (const DepEdge& e : analysis.graph.edges()) {
    if (!members.count(e.reader) || !members.count(e.writer)) continue;
    if (e.reader == e.writer) continue;
    if (!policy.Keep(e)) continue;
    writers_of[e.reader].push_back(e.writer);
  }
  for (auto& [reader, writers] : writers_of) {
    std::sort(writers.begin(), writers.end());
    writers.erase(std::unique(writers.begin(), writers.end()), writers.end());
  }
  return writers_of;
}

}  // namespace

ReenactPlan PlanReenact(const DependencyAnalysis& analysis,
                        const std::set<int64_t>& closure,
                        const std::vector<int64_t>& seed_proxy_ids,
                        const DbaPolicy& policy, const StmtJournal& journal) {
  ReenactPlan plan;
  const std::set<int64_t> seeds(seed_proxy_ids.begin(), seed_proxy_ids.end());
  std::set<int64_t> candidates;
  for (int64_t id : closure) {
    if (!seeds.count(id)) candidates.insert(id);
  }
  if (candidates.empty()) return plan;

  // Up-front demotions: the replay inputs themselves are missing.
  for (int64_t id : candidates) {
    if (analysis.tracking_gaps.count(id)) {
      plan.pre_demoted[id] = DemoteReason::kTrackingGap;
      continue;
    }
    auto it = analysis.proxy_to_internal.find(id);
    if (it == analysis.proxy_to_internal.end() ||
        !journal.HasCommitted(it->second)) {
      plan.pre_demoted[id] = DemoteReason::kNoJournal;
    }
  }

  // Propagate demotion downstream through kept edges among the candidates.
  // One ascending pass suffices: every kept edge points back to an earlier
  // writer, so a reader is visited after all in-set transactions it depends
  // on. Dependence on a *seed* never demotes (seeds are not candidates) —
  // recomputing against the seed-free state is the point of reenactment.
  const auto writers_of = KeptWritersWithin(analysis, candidates, policy);
  for (int64_t id : candidates) {
    if (plan.pre_demoted.count(id)) continue;
    auto deps = writers_of.find(id);
    if (deps == writers_of.end()) continue;
    for (int64_t w : deps->second) {
      if (plan.pre_demoted.count(w)) {
        plan.pre_demoted[id] = DemoteReason::kDownstream;
        break;
      }
    }
  }

  for (int64_t id : candidates) {
    if (!plan.pre_demoted.count(id)) plan.replay_order.push_back(id);
  }

  // Connected components of the undirected kept-edge graph restricted to
  // the replay set. Components share no tracked dependency, so they replay
  // concurrently; 2PL arbitrates any untracked physical overlap. BFS from
  // ascending roots over sorted adjacency, components sorted ascending —
  // fully deterministic.
  std::map<int64_t, std::vector<int64_t>> adj;
  const std::set<int64_t> replay_set(plan.replay_order.begin(),
                                     plan.replay_order.end());
  for (const auto& [reader, writers] : writers_of) {
    if (!replay_set.count(reader)) continue;
    for (int64_t w : writers) {
      if (!replay_set.count(w)) continue;
      adj[reader].push_back(w);
      adj[w].push_back(reader);
    }
  }
  std::set<int64_t> visited;
  for (int64_t root : plan.replay_order) {
    if (visited.count(root)) continue;
    std::vector<int64_t> component;
    std::vector<int64_t> frontier{root};
    visited.insert(root);
    while (!frontier.empty()) {
      int64_t id = frontier.back();
      frontier.pop_back();
      component.push_back(id);
      auto nbrs = adj.find(id);
      if (nbrs == adj.end()) continue;
      for (int64_t n : nbrs->second) {
        if (visited.insert(n).second) frontier.push_back(n);
      }
    }
    std::sort(component.begin(), component.end());
    plan.components.push_back(std::move(component));
  }
  return plan;
}

namespace {

// Per-component replay results, merged in component order afterwards so the
// report is deterministic under any lane scheduling.
struct LaneOutcome {
  static constexpr size_t kFinished = static_cast<size_t>(-1);
  std::set<int64_t> replayed;
  std::map<int64_t, DemoteReason> demoted;
  int64_t diverged = 0;
  int64_t stmts_replayed = 0;
  // Index of the transaction a concurrent lane stopped at because it ran
  // out of deadlock retries; kFinished once the component is done.
  size_t stopped_at = kFinished;
};

// kDeadlocked: every attempt lost a deadlock — a property of the schedule,
// not of the corrected state.
enum class ReplayResult { kCommitted, kDiverged, kDeadlocked, kFailed };

// Reports a lane's transaction as out of deadlock retries without running
// it, so tests can force the lost-race path on every run.
constexpr const char* kLaneDeadlockFailpoint = "reenact.lane.deadlock";

// Re-executes one transaction's journaled statements as one RunRepairTxn
// transaction. Divergence = statement error or row-count fingerprint
// mismatch: the transaction rolls back without a retry — the mismatch is a
// property of the corrected state, not of scheduling. Deadlock aborts retry
// the whole transaction, bounded, like the compensation lanes.
ReplayResult ReplayOneTxn(Database* db, const std::vector<StmtRecord>& stmts,
                          int64_t* stmts_replayed) {
  bool diverged = false;
  int64_t replayed_here = 0;
  const Status st = RunRepairTxn(db, [&](DbConnection* conn) -> Status {
    replayed_here = 0;
    for (const StmtRecord& rec : stmts) {
      auto res = conn->Execute(std::string_view(rec.text));
      if (!res.ok()) {
        diverged = !concurrency::IsDeadlockAbort(res.status());
        return res.status();
      }
      const int64_t got = rec.is_select
                              ? static_cast<int64_t>(res->rows.size())
                              : res->affected;
      const int64_t want = rec.is_select ? rec.rows_returned
                                         : rec.rows_affected;
      if (got != want) {
        diverged = true;
        return Status::Internal("replay fingerprint mismatch");
      }
      ++replayed_here;
    }
    return Status::Ok();
  });
  if (st.ok()) {
    *stmts_replayed += replayed_here;
    return ReplayResult::kCommitted;
  }
  if (diverged) return ReplayResult::kDiverged;
  return concurrency::IsDeadlockAbort(st) ? ReplayResult::kDeadlocked
                                          : ReplayResult::kFailed;
}

}  // namespace

void ExecuteReenactPlan(Database* db, const DependencyAnalysis& analysis,
                        const DbaPolicy& policy, const StmtJournal& journal,
                        const ReenactPlan& plan, util::ThreadPool* pool,
                        ReenactReport* out) {
  const auto start = std::chrono::steady_clock::now();
  out->demoted = plan.pre_demoted;
  out->components = static_cast<int>(plan.components.size());

  const std::set<int64_t> replay_set(plan.replay_order.begin(),
                                     plan.replay_order.end());
  const auto writers_of = KeptWritersWithin(analysis, replay_set, policy);

  // Replays component `ci` from its `from`-th transaction. A concurrent
  // lane whose transaction exhausts its deadlock retries stops there: the
  // deadlock came from racing the other lanes, so the component resumes
  // alone once they are done instead of demoting. Alone, an exhausted
  // transaction demotes as replay-failed.
  std::vector<LaneOutcome> lanes(plan.components.size());
  auto run_component = [&](size_t ci, size_t from, bool concurrent) {
    const std::vector<int64_t>& component = plan.components[ci];
    LaneOutcome& lane = lanes[ci];
    lane.stopped_at = LaneOutcome::kFinished;
    obs::Span span(obs::span::kReenactComponent);
    span.AddArg("component", static_cast<int64_t>(ci));
    span.AddArg("txns", static_cast<int64_t>(component.size() - from));
    for (size_t i = from; i < component.size(); ++i) {
      const int64_t id = component[i];
      // A divergence demotes its own downstream closure; kept edges never
      // cross components, so propagation is complete within the lane.
      bool downstream = false;
      auto deps = writers_of.find(id);
      if (deps != writers_of.end()) {
        for (int64_t w : deps->second) {
          if (lane.demoted.count(w)) {
            downstream = true;
            break;
          }
        }
      }
      if (downstream) {
        lane.demoted[id] = DemoteReason::kDownstream;
        continue;
      }
      const int64_t internal = analysis.proxy_to_internal.at(id);
      const ReplayResult result =
          fail::Triggered(kLaneDeadlockFailpoint)
              ? ReplayResult::kDeadlocked
              : ReplayOneTxn(db, journal.Committed(internal),
                             &lane.stmts_replayed);
      switch (result) {
        case ReplayResult::kCommitted:
          lane.replayed.insert(id);
          break;
        case ReplayResult::kDiverged:
          lane.demoted[id] = DemoteReason::kDiverged;
          ++lane.diverged;
          break;
        case ReplayResult::kDeadlocked:
          if (concurrent) {
            lane.stopped_at = i;
            return;
          }
          lane.demoted[id] = DemoteReason::kReplayFailed;
          break;
        case ReplayResult::kFailed:
          lane.demoted[id] = DemoteReason::kReplayFailed;
          break;
      }
    }
  };

  if (pool && plan.components.size() > 1) {
    out->replay_lanes =
        std::min<int>(pool->lanes(), static_cast<int>(plan.components.size()));
    std::vector<std::future<void>> pending;
    pending.reserve(plan.components.size());
    for (size_t ci = 0; ci < plan.components.size(); ++ci) {
      pending.push_back(pool->Submit([&, ci] { run_component(ci, 0, true); }));
    }
    for (auto& f : pending) f.wait();
    for (size_t ci = 0; ci < plan.components.size(); ++ci) {
      const size_t stopped = lanes[ci].stopped_at;
      if (stopped != LaneOutcome::kFinished) run_component(ci, stopped, false);
    }
  } else {
    out->replay_lanes = 1;
    for (size_t ci = 0; ci < plan.components.size(); ++ci) {
      run_component(ci, 0, false);
    }
  }

  for (const LaneOutcome& lane : lanes) {
    out->replayed.insert(lane.replayed.begin(), lane.replayed.end());
    out->demoted.insert(lane.demoted.begin(), lane.demoted.end());
    out->diverged += lane.diverged;
    out->stmts_replayed += lane.stmts_replayed;
  }
  out->replay_wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
}

}  // namespace irdb::repair
