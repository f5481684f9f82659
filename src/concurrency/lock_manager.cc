#include "concurrency/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/catalog.h"
#include "obs/metrics.h"
#include "util/failpoint.h"

namespace irdb::concurrency {

namespace {

// Wakeup tick for blocked waiters: each tick re-derives the waiter's
// waits-for edges and re-runs cycle detection, so detection latency and
// edge staleness are both bounded by one tick.
constexpr auto kWaitTick = std::chrono::milliseconds(2);

Status DeadlockAbortedStatus(const std::string& detail) {
  return Status::Aborted("[deadlock] " + detail);
}

}  // namespace

const char* LockModeName(LockMode m) {
  switch (m) {
    case LockMode::kIntentionShared: return "IS";
    case LockMode::kIntentionExclusive: return "IX";
    case LockMode::kShared: return "S";
    case LockMode::kSharedIntentionExclusive: return "SIX";
    case LockMode::kExclusive: return "X";
  }
  return "?";
}

const char* LockLevelName(LockLevel l) {
  switch (l) {
    case LockLevel::kTable: return "table";
    case LockLevel::kPrefix: return "prefix";
    case LockLevel::kKey: return "key";
  }
  return "?";
}

bool LockCompatible(LockMode a, LockMode b) {
  switch (a) {
    case LockMode::kIntentionShared:
      return b != LockMode::kExclusive;
    case LockMode::kIntentionExclusive:
      return b == LockMode::kIntentionShared ||
             b == LockMode::kIntentionExclusive;
    case LockMode::kShared:
      return b == LockMode::kIntentionShared || b == LockMode::kShared;
    case LockMode::kSharedIntentionExclusive:
      return b == LockMode::kIntentionShared;
    case LockMode::kExclusive:
      return false;
  }
  return false;
}

LockMode LockSupremum(LockMode a, LockMode b) {
  if (a == b) return a;
  if (a == LockMode::kExclusive || b == LockMode::kExclusive) {
    return LockMode::kExclusive;
  }
  const bool shared_side = a == LockMode::kShared || b == LockMode::kShared;
  const bool ix_side = a == LockMode::kIntentionExclusive ||
                       b == LockMode::kIntentionExclusive;
  if (a == LockMode::kSharedIntentionExclusive ||
      b == LockMode::kSharedIntentionExclusive || (shared_side && ix_side)) {
    return LockMode::kSharedIntentionExclusive;
  }
  if (shared_side) return LockMode::kShared;
  if (ix_side) return LockMode::kIntentionExclusive;
  return LockMode::kIntentionShared;
}

bool IsDeadlockAbort(const Status& s) {
  return s.code() == StatusCode::kAborted &&
         s.message().find("[deadlock") != std::string::npos;
}

LockManager::Request* LockManager::FindRequest(Queue& q, int64_t txn_id) {
  for (Request& r : q.reqs) {
    if (r.txn_id == txn_id) return &r;
  }
  return nullptr;
}

bool LockManager::CompatibleWithGranted(const Queue& q, int64_t txn_id,
                                        LockMode mode) const {
  for (const Request& o : q.reqs) {
    if (!o.granted || o.txn_id == txn_id) continue;
    if (!LockCompatible(mode, o.mode)) return false;
  }
  return true;
}

void LockManager::Promote(Queue& q) {
  // Upgrades first: the holder is already inside the granted group and
  // queueing it behind its own blockers would deadlock.
  for (Request& r : q.reqs) {
    if (r.upgrade && CompatibleWithGranted(q, r.txn_id, r.pending_mode)) {
      r.mode = r.pending_mode;
      r.upgrade = false;
      waits_for_.erase(r.txn_id);
    }
  }
  bool barrier = false;
  for (Request& r : q.reqs) {
    if (r.granted) continue;
    if (barrier) continue;
    if (CompatibleWithGranted(q, r.txn_id, r.mode)) {
      r.granted = true;
      waits_for_.erase(r.txn_id);
    } else {
      barrier = true;
    }
  }
}

void LockManager::RebuildWaitEdges(const Queue& q, int64_t txn_id) {
  std::set<int64_t>& out = waits_for_[txn_id];
  out.clear();
  const Request* mine = nullptr;
  for (const Request& r : q.reqs) {
    if (r.txn_id == txn_id) {
      mine = &r;
      break;
    }
  }
  if (mine == nullptr || (mine->granted && !mine->upgrade)) return;
  const LockMode wanted = mine->upgrade ? mine->pending_mode : mine->mode;
  bool before_me = true;
  for (const Request& o : q.reqs) {
    if (o.txn_id == txn_id) {
      before_me = false;
      continue;
    }
    if (o.granted) {
      // Queue position is irrelevant for grants. Upgraders keep their
      // granted mode, so a held S blocking another holder's S->X upgrade
      // shows up here — the conversion deadlock.
      if (!LockCompatible(wanted, o.mode)) out.insert(o.txn_id);
    } else if (!mine->upgrade && before_me) {
      // FIFO: a non-upgrade waiter also waits on every EARLIER waiter,
      // compatible or not — Promote will not overtake them. Later waiters
      // wait on us, never the reverse (an edge there would fabricate a
      // cycle between two innocent waiters in line).
      out.insert(o.txn_id);
    }
  }
}

bool LockManager::OnCycle(int64_t start) const {
  // DFS over waits_for_ looking for a path from a successor of `start` back
  // to `start`. The graph is tiny (one node per blocked transaction).
  std::vector<int64_t> stack;
  std::set<int64_t> visited;
  auto it = waits_for_.find(start);
  if (it == waits_for_.end()) return false;
  for (int64_t t : it->second) stack.push_back(t);
  while (!stack.empty()) {
    const int64_t cur = stack.back();
    stack.pop_back();
    if (cur == start) return true;
    if (!visited.insert(cur).second) continue;
    auto e = waits_for_.find(cur);
    if (e == waits_for_.end()) continue;
    for (int64_t t : e->second) stack.push_back(t);
  }
  return false;
}

Status LockManager::WaitForGrant(std::unique_lock<std::mutex>& lk,
                                 ResourceId res, int64_t txn_id, bool upgrade,
                                 LockAbortCause* cause) {
  ++stats_.waits;
  obs::Count(obs::Metrics::Get().engine_lock_waits);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::duration<double>(
                                options_.wait_timeout_seconds));
  for (;;) {
    // The queue map may rehash while we slept; re-find everything.
    auto qit = queues_.find(res);
    IRDB_CHECK_MSG(qit != queues_.end(), "lock queue vanished under waiter");
    Queue& q = qit->second;
    Request* mine = FindRequest(q, txn_id);
    IRDB_CHECK_MSG(mine != nullptr, "lock request vanished under waiter");
    if (mine->granted && !mine->upgrade) return Status::Ok();
    const LockMode wanted = mine->upgrade ? mine->pending_mode : mine->mode;

    RebuildWaitEdges(q, txn_id);
    const bool cycle = OnCycle(txn_id);
    const bool timed_out =
        !cycle && std::chrono::steady_clock::now() >= deadline;
    if (cycle || timed_out) {
      if (cycle) {
        ++stats_.deadlocks;
        obs::Count(obs::Metrics::Get().engine_deadlock_aborts);
      } else {
        ++stats_.timeouts;
        obs::Count(obs::Metrics::Get().engine_lock_timeouts);
      }
      if (cause != nullptr) {
        cause->timeout = timed_out;
        cause->held = upgrade ? std::optional<LockMode>(mine->mode)
                              : std::nullopt;
      }
      waits_for_.erase(txn_id);
      if (upgrade) {
        // Keep the pre-upgrade grant; only the widening is abandoned.
        mine->upgrade = false;
      } else {
        for (auto it = q.reqs.begin(); it != q.reqs.end(); ++it) {
          if (it->txn_id == txn_id) {
            q.reqs.erase(it);
            break;
          }
        }
        if (q.reqs.empty()) queues_.erase(res);
      }
      if (auto again = queues_.find(res); again != queues_.end()) {
        Promote(again->second);
      }
      cv_.notify_all();
      return DeadlockAbortedStatus(
          std::string(cycle ? "waits-for cycle" : "lock wait timeout") +
          " acquiring " + LockModeName(wanted) + " lock; transaction " +
          std::to_string(txn_id) + " aborted");
    }
    cv_.wait_for(lk, kWaitTick);
  }
}

Status LockManager::Acquire(int64_t txn_id, ResourceId res, LockMode mode,
                            LockAbortCause* cause) {
  // Chaos hook: widen lock-hold windows to force contention interleavings.
  if (fail::Triggered("lock.acquire.delay")) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::unique_lock<std::mutex> lk(mu_);
  Queue& q = queues_[res];
  Request* mine = FindRequest(q, txn_id);
  if (mine != nullptr) {
    IRDB_CHECK_MSG(mine->granted && !mine->upgrade,
                   "re-entrant Acquire while blocked");
    const LockMode sup = LockSupremum(mine->mode, mode);
    if (sup == mine->mode) return Status::Ok();  // already strong enough
    ++stats_.upgrades;
    if (CompatibleWithGranted(q, txn_id, sup)) {
      mine->mode = sup;
      cv_.notify_all();
      return Status::Ok();
    }
    // Blocked upgrade: keep the grant (mode) visible to other waiters'
    // deadlock edges, record the target, and wait for Promote.
    mine->pending_mode = sup;
    mine->upgrade = true;
    return WaitForGrant(lk, res, txn_id, /*upgrade=*/true, cause);
  }

  q.reqs.push_back(Request{txn_id, mode, mode, false, false});
  Promote(q);
  mine = FindRequest(q, txn_id);
  Status granted = Status::Ok();
  if (!mine->granted) {
    granted = WaitForGrant(lk, res, txn_id, /*upgrade=*/false, cause);
  }
  if (granted.ok()) {
    held_[txn_id].push_back(res);
    ++stats_.acquisitions;
  }
  return granted;
}

void LockManager::ReleaseAll(int64_t txn_id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto hit = held_.find(txn_id);
  if (hit == held_.end()) return;
  for (const ResourceId& res : hit->second) {
    auto qit = queues_.find(res);
    if (qit == queues_.end()) continue;
    Queue& q = qit->second;
    for (auto it = q.reqs.begin(); it != q.reqs.end(); ++it) {
      if (it->txn_id == txn_id) {
        q.reqs.erase(it);
        break;
      }
    }
    if (q.reqs.empty()) {
      queues_.erase(qit);
    } else {
      Promote(q);
    }
  }
  held_.erase(hit);
  waits_for_.erase(txn_id);
  cv_.notify_all();
}

LockManagerStats LockManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

int64_t LockManager::held_count(int64_t txn_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = held_.find(txn_id);
  return it == held_.end() ? 0 : static_cast<int64_t>(it->second.size());
}

bool LockManager::holds(int64_t txn_id, ResourceId res,
                        LockMode at_least) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = queues_.find(res);
  if (it == queues_.end()) return false;
  for (const Request& r : it->second.reqs) {
    if (r.txn_id == txn_id && r.granted) {
      return LockSupremum(r.mode, at_least) == r.mode;
    }
  }
  return false;
}

}  // namespace irdb::concurrency
