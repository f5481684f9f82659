// QuarantineManager — the engine-side gate of online ("serve-through")
// repair (DESIGN.md §5g).
//
// During RepairOnline the contaminated partition is registered here as a
// set of slices in the lock manager's resource space: whole tables, and
// single primary keys together with the prefix granules that enclose them
// (each key slice is the key's lock path). The engine consults the manager
// on the 2PL lock-plan path — after a statement's lock plan is derived but
// before any lock is acquired — and rejects statements whose plan reads or
// writes a fenced slice with a "[quarantine]"-tagged kUnavailable
// (retryable, so proxy/NetClient backoff semantics carry over unchanged).
// A prefix scan of a clean district in a partially fenced table passes;
// everything else proceeds normally too.
//
// Exactly one online repair may hold the quarantine at a time: Begin()
// claims the slot and a second claimant gets kFailedPrecondition until
// End(). Slices are released incrementally (per table, then per key) as
// the repair heals them, so availability recovers before the repair
// finishes.
//
// The inactive fast path is one relaxed atomic load; statements never pay
// for quarantine support while no repair is running.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "concurrency/lock_manager.h"
#include "util/status.h"

namespace irdb::concurrency {

// One quarantined slice, as a lock path from its table down. A whole-table
// slice is just the table; a key slice continues through every
// proper-prefix granule enclosing the key and ends at the key — the
// resources a keyed write of that row locks (Database::KeyLockPath).
struct QuarantineSlice {
  std::vector<ResourceId> path;

  static QuarantineSlice WholeTable(int32_t table_id) {
    return {{ResourceId::Table(table_id)}};
  }
  int32_t table_id() const { return path.front().table_id; }
  bool is_table() const { return path.size() == 1; }
};

struct QuarantineStats {
  bool active = false;
  int slices = 0;               // currently quarantined
  int tables = 0;               // distinct tables with at least one slice
  int64_t installed_total = 0;  // slices ever installed
  int64_t released_total = 0;   // slices ever released
  int64_t rejects_total = 0;    // statements rejected by the gate
};

class QuarantineManager {
 public:
  QuarantineManager() = default;
  QuarantineManager(const QuarantineManager&) = delete;
  QuarantineManager& operator=(const QuarantineManager&) = delete;

  // Claims the single online-repair slot. A second concurrent repair is
  // rejected with kFailedPrecondition until the holder calls End().
  Status Begin();

  // Installs slices under the active claim; duplicates are ignored. A
  // whole-table slice subsumes that table's keys. Returns how many slices
  // were actually added.
  int Add(const std::vector<QuarantineSlice>& slices);

  // Incremental release. Return how many slices were dropped.
  int ReleaseTable(int32_t table_id);
  int ReleaseKey(const ResourceId& key);

  // Drops any remaining slices and frees the claim.
  void End();

  bool active() const {
    return active_.load(std::memory_order_acquire);
  }

  // The lock-plan gate: would a statement holding `mode` on `res` touch
  // quarantined data? A whole-table slice conflicts with every lock on its
  // table. Otherwise the modes that cover a granule (S, SIX, X) conflict on
  // the table and on each prefix granule enclosing a fenced key; intention
  // modes pass there (their finer locks are judged on their own), and so do
  // sibling prefixes. Key locks conflict with a fenced key.
  bool Blocks(const ResourceId& res, LockMode mode) const;

  // True when `txn_id` already holds a lock overlapping the quarantine —
  // at least S on a fenced key, on a prefix granule enclosing one, or on
  // the table (any mode on a whole-table slice). Such a transaction pins
  // contaminated rows and must be aborted for the repair's drain to
  // complete.
  bool HoldsOverlapping(const LockManager& lm, int64_t txn_id) const;

  // Current slices as lockable resources for the drain pass, root to leaf:
  // whole table → table X; key slice → IX on the table and on every
  // enclosing prefix granule, then X on the key. The prefix IX makes the
  // drain wait out holders of S, SIX or X on an enclosing granule too.
  std::vector<std::pair<ResourceId, LockMode>> DrainPlan() const;

  // Bumps the reject accounting (callers surface the actual status).
  void CountReject();

  QuarantineStats stats() const;

 private:
  struct TableSlices {
    bool whole_table = false;
    // Fenced key → the prefix granules enclosing it.
    std::unordered_map<ResourceId, std::vector<ResourceId>, ResourceIdHash>
        keys;
    // Prefix granule → how many fenced keys it encloses.
    std::unordered_map<ResourceId, int, ResourceIdHash> ancestors;
  };

  int CountLocked() const;     // total slices, mu_ held
  void PublishGauge() const;   // slice-count gauge, mu_ held

  mutable std::mutex mu_;
  std::atomic<bool> active_{false};
  std::unordered_map<int32_t, TableSlices> tables_;
  int64_t installed_total_ = 0;
  int64_t released_total_ = 0;
  std::atomic<int64_t> rejects_total_{0};
};

}  // namespace irdb::concurrency
