// Transaction manager: owns the lock manager and the lifecycle of each
// transaction's lock set. The engine registers a transaction at BEGIN,
// funnels every lock request through locks(), and calls Commit/Abort
// exactly once — which is where strict two-phase locking's "release
// everything at end of transaction" rule is enforced (there is no API for
// releasing a single lock early).
#pragma once

#include <atomic>
#include <cstdint>

#include "concurrency/lock_manager.h"

namespace irdb::concurrency {

struct TransactionManagerStats {
  int64_t began = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t active = 0;
};

class TransactionManager {
 public:
  explicit TransactionManager(LockManager::Options lock_options = {})
      : locks_(lock_options) {}

  void Begin(int64_t txn_id) {
    (void)txn_id;
    began_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
  }

  void Commit(int64_t txn_id) {
    locks_.ReleaseAll(txn_id);
    committed_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_sub(1, std::memory_order_relaxed);
  }

  void Abort(int64_t txn_id) {
    locks_.ReleaseAll(txn_id);
    aborted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_sub(1, std::memory_order_relaxed);
  }

  LockManager& locks() { return locks_; }
  const LockManager& locks() const { return locks_; }

  TransactionManagerStats stats() const {
    TransactionManagerStats s;
    s.began = began_.load(std::memory_order_relaxed);
    s.committed = committed_.load(std::memory_order_relaxed);
    s.aborted = aborted_.load(std::memory_order_relaxed);
    s.active = active_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  LockManager locks_;
  std::atomic<int64_t> began_{0};
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> aborted_{0};
  std::atomic<int64_t> active_{0};
};

}  // namespace irdb::concurrency
