#include "repair/repair_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "obs/catalog.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace irdb::repair {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

int64_t ImageBytes(const LogRecord& rec) {
  return static_cast<int64_t>(rec.before_image.size() +
                              rec.after_image.size() + rec.ddl_text.size());
}

// Drains in-flight holders of the quarantined slices: X-locks every slice
// through the lock manager under a throwaway transaction, which blocks
// until every transaction that held a lock overlapping the quarantine has
// committed or rolled back, then releases immediately — the rejection gate
// (already installed) keeps new entrants out, so the locks only need to
// prove the slices are quiet, not keep them so. Bounded deadlock retries:
// the drain can lose a waits-for cycle against a multi-statement client.
Status DrainQuarantinedSlices(Database* db) {
  const auto plan = db->quarantine().DrainPlan();  // root to leaf
  Status last = Status::Ok();
  for (int attempt = 0; attempt < 16; ++attempt) {
    // Transactions already pinning a fenced slice would never release it
    // (the gate only fires on their next statement, which may never come):
    // roll them back here so the X-pass below cannot wait on a dead hand.
    (void)db->EvictQuarantinePinnedTxns();
    const int64_t txn = db->AllocateTxnId();
    db->txn_manager().Begin(txn);
    Status st = Status::Ok();
    for (const auto& [res, mode] : plan) {
      st = db->txn_manager().locks().Acquire(txn, res, mode);
      if (!st.ok()) break;
    }
    db->txn_manager().Abort(txn);  // release everything either way
    if (st.ok()) return st;
    if (st.code() != StatusCode::kAborted) return st;
    last = std::move(st);
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + attempt));
  }
  return last;
}

}  // namespace

void RepairEngine::set_threads(int threads) {
  threads_ = std::max(1, threads);
  obs::SetGauge(obs::Metrics::Get().repair_threads, threads_);
  if (threads_ <= 1) {
    pool_.reset();
  } else if (!pool_ || pool_->lanes() != threads_) {
    pool_ = std::make_unique<util::ThreadPool>(threads_);
  }
}

Result<DependencyAnalysis> RepairEngine::Analyze() {
  phases_ = RepairPhaseStats{};
  phases_.threads = threads_;
  obs::Count(obs::Metrics::Get().repair_runs);
  // One snapshot bounds the scan, the span and the phase accounting, so they
  // cover the same records even while live commits keep appending.
  const WalView log = db_->wal().records();
  obs::Span analyze(obs::span::kRepairAnalyze);
  analyze.AddArg("records", static_cast<int64_t>(log.size()));
  analyze.AddArg("threads", threads_);

  auto analysis =
      repair::Analyze(reader_.get(), log, &admin_, pool_.get(), &phases_);
  if (!analysis.ok()) return analysis.status();

  // Simulated scan charge: sequential log read + per-record image decoding,
  // split into the same contiguous segments the parallel scan uses. Lanes
  // run concurrently, so the parallel charge is the largest segment's.
  phases_.records_scanned = static_cast<int64_t>(log.size());
  const auto segments =
      util::ThreadPool::SplitRange(static_cast<int64_t>(log.size()), threads_);
  phases_.scan_segments = std::max<int>(1, static_cast<int>(segments.size()));
  double max_segment_s = 0, total_s = 0;
  for (const auto& [begin, end] : segments) {
    double segment_s = 0;
    for (int64_t i = begin; i < end; ++i) {
      const int64_t bytes = ImageBytes(log[static_cast<size_t>(i)]);
      phases_.image_bytes_scanned += bytes;
      segment_s += costs_.scan_record_seconds +
                   costs_.scan_byte_seconds * static_cast<double>(bytes);
    }
    max_segment_s = std::max(max_segment_s, segment_s);
    total_s += segment_s;
  }
  phases_.scan_sim_ms += (threads_ > 1 ? max_segment_s : total_s) * 1000.0;
  obs::Count(obs::Metrics::Get().repair_records_scanned,
             phases_.records_scanned);
  obs::Count(obs::Metrics::Get().repair_scan_sim_us,
             std::llround(phases_.scan_sim_ms * 1000.0));
  obs::EventJournal::Default().Append(
      obs::event::kRepairAnalyzeDone,
      {{"records", std::to_string(phases_.records_scanned)},
       {"nodes", std::to_string(analysis->graph.nodes().size())},
       {"edges", std::to_string(analysis->graph.edges().size())},
       {"gaps", std::to_string(analysis->tracking_gaps.size())}});
  return analysis;
}

std::set<int64_t> RepairEngine::ComputeUndoSet(
    const DependencyAnalysis& analysis,
    const std::vector<int64_t>& seed_proxy_ids, const DbaPolicy& policy) const {
  obs::Span span(obs::span::kRepairClosure);
  span.AddArg("seeds", static_cast<int64_t>(seed_proxy_ids.size()));
  std::set<int64_t> out =
      analysis.graph.Affected(seed_proxy_ids, policy.AsFilter(), pool_.get());
  span.AddArg("undo", static_cast<int64_t>(out.size()));
  const double ms = span.End();
  phases_.closure_wall_ms += ms;
  obs::Count(obs::Metrics::Get().repair_closure_us, std::llround(ms * 1000.0));
  return out;
}

Result<RepairReport> RepairEngine::CompensateUndoSet(
    const DependencyAnalysis& analysis, const std::set<int64_t>& undo) {
  IRDB_ASSIGN_OR_RETURN(std::vector<CompensationBatch> batches,
                        BuildCompensationBatches(analysis, undo));
  RepairReport report;
  report.undo_set = undo;
  IRDB_RETURN_IF_ERROR(RunCompensation(batches, &report));
  return report;
}

Status RepairEngine::RunCompensation(
    const std::vector<CompensationBatch>& batches, RepairReport* report,
    const LaneCommitHook& on_commit) {
  obs::Span span(obs::span::kRepairCompensate);
  IRDB_RETURN_IF_ERROR(
      CompensateLanes(db_, batches, pool_.get(), report, on_commit));
  span.AddArg("stmts", report->ops_compensated);
  span.AddArg("lanes", report->compensate_lanes);
  const double wall_ms = span.End();
  phases_.compensate_wall_ms += wall_ms;
  phases_.compensate_lanes = report->compensate_lanes;
  phases_.compensate_stmts += report->ops_compensated;
  obs::Count(obs::Metrics::Get().repair_compensate_us,
             std::llround(wall_ms * 1000.0));
  obs::Count(obs::Metrics::Get().repair_compensations,
             report->ops_compensated);

  // Simulated compensation charge: one random page read + log append per
  // compensating statement. Each table's batch is one lane, so the charge
  // is the makespan of the batch costs over `threads_` workers under the
  // deterministic longest-batch-first assignment — the sum at threads=1.
  std::vector<size_t> sizes;
  for (const CompensationBatch& b : batches) sizes.push_back(b.ops.size());
  std::sort(sizes.rbegin(), sizes.rend());
  std::vector<double> lane_s(static_cast<size_t>(threads_), 0.0);
  for (size_t n : sizes) {
    auto lane = std::min_element(lane_s.begin(), lane_s.end());
    *lane += static_cast<double>(n) * costs_.compensate_stmt_seconds;
  }
  const double sim_s = *std::max_element(lane_s.begin(), lane_s.end());
  phases_.compensate_sim_ms += sim_s * 1000.0;
  obs::Count(obs::Metrics::Get().repair_compensate_sim_us,
             std::llround(sim_s * 1000.0 * 1000.0));
  obs::EventJournal::Default().Append(
      obs::event::kRepairDone,
      {{"undone", std::to_string(report->undo_set.size())},
       {"stmts", std::to_string(report->ops_compensated)}});
  return Status::Ok();
}

Result<OnlineRepairReport> RepairEngine::RepairOnline(
    const std::vector<int64_t>& seed_proxy_ids, const DbaPolicy& policy) {
  if (db_->serial_mode()) {
    return Status::FailedPrecondition(
        "online repair requires the concurrent engine (serial_mode off)");
  }
  // Claim the single online-repair slot; an overlapping repair is rejected
  // here with kFailedPrecondition and holds nothing.
  IRDB_RETURN_IF_ERROR(db_->quarantine().Begin());
  obs::Count(obs::Metrics::Get().repair_online_runs);
  db_->SetSessionQuarantineExempt(admin_.session_id(), true);
  const int64_t rejects_before = db_->quarantine().stats().rejects_total;

  OnlineRepairReport out;
  DependencyAnalysis analysis;
  std::set<int64_t> undo;
  ContaminatedPartition part;

  // Fixpoint: install → drain → re-analyze until the undo set stops
  // growing. Round N's drain guarantees every write that raced round N's
  // fence is durable in the log, so round N+1's analysis sees it; once two
  // consecutive rounds agree, nothing can still be missing.
  {
    obs::Span compute(obs::span::kQuarantineCompute);
    std::set<int64_t> prev;
    bool stable = false;
    static constexpr int kMaxRounds = 8;
    for (out.rounds = 1; out.rounds <= kMaxRounds; ++out.rounds) {
      auto a = Analyze();
      if (!a.ok()) {
        db_->quarantine().End();  // nothing healed, nothing fenced: safe
        return a.status();
      }
      analysis = std::move(*a);
      undo = ComputeUndoSet(analysis, seed_proxy_ids, policy);
      part = ComputeContaminatedPartition(db_, analysis, undo);
      db_->quarantine().Add(part.slices);
      if (undo.empty() && part.slices.empty()) {
        stable = true;  // empty closure: nothing to fence, nothing to drain
        break;
      }
      if (out.rounds > 1 && undo == prev) {
        stable = true;
        break;
      }
      prev = undo;
      if (Status st = DrainQuarantinedSlices(db_); !st.ok()) {
        db_->quarantine().End();
        return st;
      }
    }
    if (!stable) {
      db_->quarantine().End();
      return Status::Internal(
          "online repair: undo set did not stabilize after 8 rounds "
          "(sustained contaminated-slice traffic?)");
    }
    out.slices_installed = static_cast<int>(part.slices.size());
    out.whole_table_slices = static_cast<int>(part.whole_tables.size());
    out.key_slices = part.keys;
    out.fallback_whole_tables = part.fallback_whole_tables;
    compute.AddArg("slices", out.slices_installed);
    compute.AddArg("tables", static_cast<int64_t>(part.table_ids.size()));
    compute.AddArg("rounds", out.rounds);
  }
  obs::EventJournal::Default().Append(
      obs::event::kQuarantineInstalled,
      {{"slices", std::to_string(out.slices_installed)},
       {"tables", std::to_string(part.table_ids.size())},
       {"round", std::to_string(out.rounds)}});

  obs::Span hold(obs::span::kQuarantineHold);
  hold.AddArg("slices", out.slices_installed);

  auto batches = BuildCompensationBatches(analysis, undo, &part.op_keys);
  if (!batches.ok()) {
    db_->quarantine().End();  // nothing compensated yet
    return batches.status();
  }
  out.lanes = static_cast<int>(batches->size());
  out.repair.undo_set = undo;

  // The offline lanes, plus one thing: a table's slices leave the
  // quarantine the moment its lane commits. A lane that fails leaves its
  // table fenced (see header contract).
  std::atomic<int> released{0};
  auto release = [&](const CompensationBatch& batch) {
    // Metadata tables were never installed, so their release count is 0.
    auto id = part.table_ids.find(batch.table);
    if (id == part.table_ids.end()) return;
    obs::Span rel(obs::span::kQuarantineRelease);
    const int n = db_->quarantine().ReleaseTable(id->second);
    released.fetch_add(n, std::memory_order_relaxed);
    rel.AddArg("table", batch.table);
    rel.AddArg("slices", n);
    if (n > 0) {
      obs::Count(obs::Metrics::Get().repair_online_releases, n);
      obs::EventJournal::Default().Append(
          obs::event::kQuarantineReleased,
          {{"table", batch.table},
           {"slices", std::to_string(n)},
           {"remaining", std::to_string(db_->quarantine().stats().slices)}});
    }
  };
  const Status healed = RunCompensation(*batches, &out.repair, release);
  out.slices_released = released.load(std::memory_order_relaxed);
  out.rejects_during =
      db_->quarantine().stats().rejects_total - rejects_before;
  hold.AddArg("released", out.slices_released);
  hold.End();
  IRDB_RETURN_IF_ERROR(healed);
  db_->quarantine().End();
  return out;
}

Result<RepairReport> RepairEngine::Repair(
    const std::vector<int64_t>& seed_proxy_ids, const DbaPolicy& policy) {
  if (policy.strategy() == RepairStrategy::kReenact) {
    IRDB_ASSIGN_OR_RETURN(ReenactReport reenacted,
                          RepairReenact(seed_proxy_ids, policy));
    return reenacted.repair;
  }
  const auto start = Clock::now();
  IRDB_ASSIGN_OR_RETURN(DependencyAnalysis analysis, Analyze());
  std::set<int64_t> undo = ComputeUndoSet(analysis, seed_proxy_ids, policy);
  auto report = CompensateUndoSet(analysis, undo);
  if (report.ok()) {
    obs::Observe(obs::Metrics::Get().repair_run_latency, MsSince(start));
  }
  return report;
}

Result<ReenactReport> RepairEngine::RepairReenact(
    const std::vector<int64_t>& seed_proxy_ids, const DbaPolicy& policy) {
  const auto start = Clock::now();
  obs::Count(obs::Metrics::Get().reenact_runs);
  obs::Span run(obs::span::kReenact);
  run.AddArg("seeds", static_cast<int64_t>(seed_proxy_ids.size()));
  run.AddArg("threads", threads_);

  IRDB_ASSIGN_OR_RETURN(DependencyAnalysis analysis, Analyze());
  ReenactReport out;
  out.closure = ComputeUndoSet(analysis, seed_proxy_ids, policy);
  // Mechanical undo of the ENTIRE closure: this is the state "history minus
  // the closure", the baseline every replay recomputes against. Selective
  // effects come from the replay, not from a selective compensation.
  IRDB_ASSIGN_OR_RETURN(out.repair, CompensateUndoSet(analysis, out.closure));

  obs::Span replay(obs::span::kReenactReplay);
  const ReenactPlan plan = PlanReenact(analysis, out.closure, seed_proxy_ids,
                                       policy, db_->stmt_journal());
  ExecuteReenactPlan(db_, analysis, policy, db_->stmt_journal(), plan,
                     pool_.get(), &out);
  replay.AddArg("txns", static_cast<int64_t>(plan.replay_order.size()));
  replay.AddArg("components", out.components);
  replay.AddArg("lanes", out.replay_lanes);
  const double replay_ms = replay.End();
  phases_.replay_wall_ms += replay_ms;
  phases_.replay_stmts += out.stmts_replayed;
  phases_.replay_components = out.components;
  obs::Count(obs::Metrics::Get().reenact_replay_us,
             std::llround(replay_ms * 1000.0));

  // What STAYED undone: the seeds plus every demotion. The full closure was
  // compensated, but the replayed members' effects are back.
  out.repair.undo_set =
      std::set<int64_t>(seed_proxy_ids.begin(), seed_proxy_ids.end());
  for (const auto& [id, reason] : out.demoted) {
    out.repair.undo_set.insert(id);
    obs::EventJournal::Default().Append(
        obs::event::kReenactDemoted,
        {{"trid", std::to_string(id)}, {"reason", DemoteReasonName(reason)}});
  }

  obs::Count(obs::Metrics::Get().reenact_replayed_txns,
             static_cast<int64_t>(out.replayed.size()));
  obs::Count(obs::Metrics::Get().reenact_demoted_txns,
             static_cast<int64_t>(out.demoted.size()));
  obs::Count(obs::Metrics::Get().reenact_diverged_txns, out.diverged);
  obs::Count(obs::Metrics::Get().reenact_stmts_replayed, out.stmts_replayed);
  obs::Count(obs::Metrics::Get().reenact_components, out.components);
  obs::EventJournal::Default().Append(
      obs::event::kReenactDone,
      {{"closure", std::to_string(out.closure.size())},
       {"replayed", std::to_string(out.replayed.size())},
       {"demoted", std::to_string(out.demoted.size())},
       {"diverged", std::to_string(out.diverged)}});
  obs::Observe(obs::Metrics::Get().reenact_run_latency, MsSince(start));
  obs::Observe(obs::Metrics::Get().repair_run_latency, MsSince(start));
  return out;
}

}  // namespace irdb::repair
