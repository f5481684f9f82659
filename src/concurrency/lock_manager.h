// Hierarchical two-phase lock manager (DESIGN.md §5f).
//
// Resources form a three-level hierarchy per table: the table, one granule
// per proper equality prefix of its primary key (customer(w,d),
// order_line(w,d,o)), and keys. Prefix and key names are FNV hashes of the
// coerced key values they pin — stable across the page compactions that
// make RowLoc unusable as a lock name. Statements lock root to leaf: an
// intention mode on the table and on every enclosing prefix, then S/X on
// the deepest granule their literals pin (a key, a prefix, or the table
// itself for statements with no literal key prefix). Locks are strict
// two-phase: acquired before a statement executes, held until the owning
// transaction commits or aborts.
//
// Modes are IS, IX, S, SIX and X. SIX (shared + intention-exclusive) is
// what a transaction holds after reading a whole granule and then writing
// keys below it: it admits other readers' IS but no one else's writes.
//
// Grants are FIFO per resource: a waiter blocks every later non-upgrade
// request even if that request is compatible with the granted group, so
// writers cannot starve behind a stream of readers. Upgrades (a holder
// widening its mode, e.g. S -> X) jump the queue — the holder is already
// inside the granted group, and queueing it behind its own blockers would
// deadlock with any other upgrader.
//
// Deadlocks are detected on a waits-for graph: an edge T1 -> T2 means T1's
// pending request is blocked by T2 (T2 holds an incompatible grant, or sits
// earlier in the queue). Each blocked thread re-derives its own edges and
// runs a DFS from itself on every wakeup tick; if it finds itself on a
// cycle it aborts — the requester whose arrival completed the cycle always
// lies on it, so aborting requesters dissolves every cycle without
// cross-thread signalling. Aborts surface as kAborted tagged "[deadlock]"
// (see util/status.h for when the tag is widened to the retryable form).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace irdb::concurrency {

enum class LockMode : uint8_t {
  kIntentionShared = 0,       // IS: will take S on some keys below
  kIntentionExclusive,        // IX: will take X on some keys below
  kShared,                    // S: read the whole resource
  kSharedIntentionExclusive,  // SIX: S, plus X on some keys below
  kExclusive,                 // X: write the whole resource
};

const char* LockModeName(LockMode m);

// Compatibility of a requested mode against a held mode (symmetric).
bool LockCompatible(LockMode a, LockMode b);

// Least mode at least as strong as both (S + IX is SIX).
LockMode LockSupremum(LockMode a, LockMode b);

// Level of a lockable resource in the hierarchy, root to leaf.
enum class LockLevel : uint8_t { kTable = 0, kPrefix, kKey };

const char* LockLevelName(LockLevel l);

// Name of a lockable resource. Prefix granules also carry their depth (how
// many leading key columns they pin), so customer(w) and customer(w,d)
// stay distinct and sort shallow before deep.
struct ResourceId {
  int32_t table_id = 0;
  LockLevel level = LockLevel::kTable;
  uint8_t depth = 0;  // prefix granules only
  uint64_t hash = 0;  // FNV of the pinned coerced key values; 0 for a table

  static ResourceId Table(int32_t table_id) { return {table_id}; }
  static ResourceId Prefix(int32_t table_id, size_t depth, uint64_t hash) {
    return {table_id, LockLevel::kPrefix, static_cast<uint8_t>(depth), hash};
  }
  static ResourceId Key(int32_t table_id, uint64_t hash) {
    return {table_id, LockLevel::kKey, 0, hash};
  }

  bool is_table() const { return level == LockLevel::kTable; }
  bool is_key() const { return level == LockLevel::kKey; }
  bool operator==(const ResourceId& o) const {
    return table_id == o.table_id && level == o.level && depth == o.depth &&
           hash == o.hash;
  }
  // Root-to-leaf acquisition order: (table, level, depth, hash). Every
  // granule sorts after the granules that enclose it.
  bool operator<(const ResourceId& o) const {
    if (table_id != o.table_id) return table_id < o.table_id;
    if (level != o.level) return level < o.level;
    if (depth != o.depth) return depth < o.depth;
    return hash < o.hash;
  }
};

struct ResourceIdHash {
  size_t operator()(const ResourceId& r) const {
    uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(r.table_id));
    h = (h << 16) | (static_cast<uint64_t>(r.level) << 8) | r.depth;
    h = h * 0x9e3779b97f4a7c15ULL ^ r.hash;
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }
};

// Why Acquire refused a lock, filled when it returns a deadlock abort.
struct LockAbortCause {
  bool timeout = false;  // the wait-timeout failsafe fired, not a cycle
  // The grant being converted from, when the request was an upgrade.
  std::optional<LockMode> held;
};

struct LockManagerStats {
  int64_t acquisitions = 0;  // grants, first-time (upgrades not re-counted)
  int64_t upgrades = 0;      // mode widenings of an existing grant
  int64_t waits = 0;         // requests that blocked at least once
  int64_t deadlocks = 0;     // requests aborted by cycle detection
  int64_t timeouts = 0;      // requests aborted by the wait-timeout failsafe
};

// True if `s` is a deadlock (or lock-timeout) abort from the lock manager,
// whether or not it carries the autocommit retryable tag.
bool IsDeadlockAbort(const Status& s);

class LockManager {
 public:
  struct Options {
    // Failsafe: a waiter that has not been granted or deadlock-aborted
    // within this many wall seconds gives up with a tagged abort. Detection
    // normally fires within a few wakeup ticks; the timeout only matters if
    // an application leaks a transaction while holding locks.
    double wait_timeout_seconds = 10.0;
  };

  LockManager() : LockManager(Options()) {}
  explicit LockManager(Options options) : options_(options) {}

  // Setup-only (call before concurrent traffic, like IoModel::Configure):
  // shortens the wait-timeout failsafe. Sharded deployments rely on this —
  // the waits-for graph is per shard, so a lock cycle that crosses shards
  // is invisible to cycle detection and resolves only when one waiter's
  // timeout fires and surfaces a retryable deadlock abort.
  void set_wait_timeout_seconds(double s) { options_.wait_timeout_seconds = s; }

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Blocks until `txn_id` holds `mode` (or a stronger mode) on `res`.
  // Returns a "[deadlock]"-tagged kAborted status if the wait would
  // deadlock or times out, and then fills `cause` when given; the request
  // is withdrawn but locks already held by the transaction are kept (the
  // caller decides how much to roll back).
  Status Acquire(int64_t txn_id, ResourceId res, LockMode mode,
                 LockAbortCause* cause = nullptr);

  // Releases every lock held by `txn_id` and wakes eligible waiters.
  void ReleaseAll(int64_t txn_id);

  LockManagerStats stats() const;

  // Introspection for tests.
  int64_t held_count(int64_t txn_id) const;
  bool holds(int64_t txn_id, ResourceId res, LockMode at_least) const;

 private:
  struct Request {
    int64_t txn_id = 0;
    LockMode mode = LockMode::kShared;  // granted mode (held while upgrading)
    // Target mode of a pending upgrade. While upgrading, `granted` stays
    // true and `mode` keeps the held grant — losing it would hide the
    // holder from other waiters' deadlock edges (two S holders upgrading to
    // X must see each other).
    LockMode pending_mode = LockMode::kShared;
    bool granted = false;
    bool upgrade = false;  // waiting to widen the existing grant
  };
  struct Queue {
    std::vector<Request> reqs;
  };

  Request* FindRequest(Queue& q, int64_t txn_id);
  // Is `mode` compatible with every granted request other than `txn_id`'s?
  bool CompatibleWithGranted(const Queue& q, int64_t txn_id,
                             LockMode mode) const;
  // FIFO grant scan; called after any queue change. Wakes nobody itself —
  // callers notify the condition variable once per mutation batch.
  void Promote(Queue& q);
  // Recomputes the out-edges of `txn_id`'s pending request on `res`.
  void RebuildWaitEdges(const Queue& q, int64_t txn_id);
  bool OnCycle(int64_t start) const;
  // Waits until granted; on deadlock/timeout removes the request (or, for
  // upgrades, abandons the widening and keeps the previous grant) and
  // returns the tagged abort.
  Status WaitForGrant(std::unique_lock<std::mutex>& lk, ResourceId res,
                      int64_t txn_id, bool upgrade, LockAbortCause* cause);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<ResourceId, Queue, ResourceIdHash> queues_;
  std::unordered_map<int64_t, std::vector<ResourceId>> held_;
  std::unordered_map<int64_t, std::set<int64_t>> waits_for_;
  LockManagerStats stats_;
};

}  // namespace irdb::concurrency
