// The minidb engine: executes SQL text against the catalog/storage layers,
// writes per-row WAL records in the active flavor's style, and supports
// sessions with BEGIN/COMMIT/ROLLBACK (plus autocommit).
//
// Concurrency model (DESIGN.md §5f): statements from different sessions
// execute concurrently under strict two-phase locking. Before a statement
// runs, the engine derives a lock plan from its AST — per table, intention
// modes down the primary-key hierarchy and S/X on the deepest granule its
// literals pin: one key, one key-prefix granule (e.g. one district's
// customers), or the whole table when no literal key prefix exists — and
// acquires it through the transaction manager (src/concurrency). Locks are
// held until COMMIT/ROLLBACK; waits-for-graph detection aborts deadlocked
// requesters with a "[deadlock]"-tagged kAborted status (retryable for
// autocommit statements, whose transaction the abort fully undoes).
// Physical safety inside a statement comes from per-table latches (shared
// for reads, exclusive for writes), always taken after every 2PL lock is
// granted and in table-id order, so latches never deadlock.
//
// set_serial_mode(true) restores the pre-lock-manager behaviour — one
// global mutex around every statement — and exists as the baseline leg of
// bench_concurrency.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "concurrency/quarantine.h"
#include "concurrency/transaction_manager.h"
#include "engine/expr_eval.h"
#include "engine/io_model.h"
#include "engine/result_set.h"
#include "flavor/flavor_traits.h"
#include "sql/ast.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "txn/stmt_journal.h"
#include "txn/wal_log.h"
#include "util/status.h"

namespace irdb {

struct DbStats {
  int64_t statements = 0;
  int64_t selects = 0;
  int64_t inserts = 0;
  int64_t updates = 0;
  int64_t deletes = 0;
  int64_t commits = 0;
  int64_t rollbacks = 0;
  int64_t deadlock_aborts = 0;
};

class Database {
 public:
  explicit Database(FlavorTraits traits, IoCostParams io_params = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Session lifecycle. Session 0 is pre-opened for convenience.
  int64_t OpenSession();
  void CloseSession(int64_t session_id);

  // Parses and executes one statement.
  Result<ResultSet> Execute(int64_t session_id, std::string_view sql_text);

  // Executes an already-parsed statement (used by tests; the wire path always
  // carries text, as the paper's portability argument requires).
  Result<ResultSet> ExecuteParsed(int64_t session_id, const sql::Statement& stmt);

  const FlavorTraits& traits() const { return traits_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  WalLog& wal() { return wal_; }
  const WalLog& wal() const { return wal_; }

  // Statement journal: logical statement text of committed transactions,
  // sealed at COMMIT, discarded at ROLLBACK. The reenactment repair's replay
  // source (DESIGN.md §5i).
  StmtJournal& stmt_journal() { return stmt_journal_; }
  const StmtJournal& stmt_journal() const { return stmt_journal_; }
  IoModel& io_model() { return io_model_; }
  const IoModel& io_model() const { return io_model_; }
  DbStats stats() const;

  concurrency::TransactionManager& txn_manager() { return txn_mgr_; }
  const concurrency::TransactionManager& txn_manager() const { return txn_mgr_; }

  // Buffer pool every table of this engine pins pages through. Unbounded by
  // default; benches/tests cap it with set_capacity to exercise eviction.
  BufferPool& buffer_pool() { return buffer_pool_; }
  const BufferPool& buffer_pool() const { return buffer_pool_; }

  // Online-repair quarantine gate (DESIGN.md §5g). Consulted on the
  // concurrent statement path after lock planning: statements whose plan
  // touches a quarantined slice — or whose open transaction already pins
  // one — are rejected with a "[quarantine]"-tagged kUnavailable before any
  // lock is acquired. Sessions marked exempt (the repair engine's own
  // connections) bypass the gate.
  concurrency::QuarantineManager& quarantine() { return quarantine_; }
  const concurrency::QuarantineManager& quarantine() const {
    return quarantine_;
  }
  void SetSessionQuarantineExempt(int64_t session_id, bool exempt);

  // Force-aborts open transactions that hold locks overlapping the active
  // quarantine (the gate only catches them on their NEXT statement; an idle
  // transaction would pin its slice and stall the repair's drain forever).
  // Victims are rolled back, their locks released, and their session
  // poisoned with the retryable quarantine status. Sessions currently
  // executing a statement are skipped (best effort — callers retry around
  // the drain). Returns how many transactions were evicted.
  int EvictQuarantinePinnedTxns();

  // Allocates an engine transaction id without a session — the online
  // repair's drain pass uses one to X-lock quarantined slices through the
  // lock manager (txn_manager().Begin/Abort bracket the locks).
  int64_t AllocateTxnId() {
    return next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- lock-space bridge for the quarantine partition (src/repair) ---
  // Lock path of the row of `table` whose primary key is assembled from
  // (column, value) pairs: the table, every proper-prefix granule, then the
  // key — exactly the resources the planner names for a keyed write of that
  // row. nullopt when the table/index is missing or the pairs don't cover
  // the whole key.
  std::optional<std::vector<concurrency::ResourceId>> KeyLockPath(
      const std::string& table,
      const std::vector<std::pair<std::string, Value>>& row_values) const;
  // Primary-key values of the live rows whose row address (hidden rowid,
  // or the `address_column` identity value when the flavor has no rowid)
  // is in `addresses`. Takes the catalog and table latches shared — safe
  // against concurrent traffic. Addresses of deleted rows are simply
  // absent from the result.
  std::vector<std::pair<int64_t, std::vector<std::pair<std::string, Value>>>>
  KeyValuesForRowAddresses(const std::string& table,
                           const std::vector<int64_t>& addresses,
                           const std::string& address_column) const;
  // (table id, primary-key column names) under the catalog latch; nullopt
  // when the table is missing, empty names when it has no primary-key index
  // (key-slicing impossible — callers fall back to whole-table).
  std::optional<std::pair<int32_t, std::vector<std::string>>> TableKeyInfo(
      const std::string& table) const;

  // Baseline mode for bench_concurrency: serializes every statement under
  // one mutex and bypasses the lock manager, reproducing the engine this PR
  // replaced. Setup-only — flip it before concurrent sessions start.
  void set_serial_mode(bool on) { serial_mode_ = on; }
  bool serial_mode() const { return serial_mode_; }

  // Canonical fingerprint of user-visible table contents: rows of each listed
  // table, decoded, sorted, hashed. Hidden rowids and (optionally) named
  // columns are excluded. Quiesced-state only (no latches taken).
  uint64_t StateHash(const std::vector<std::string>& tables,
                     const std::vector<std::string>& exclude_columns = {}) const;

 private:
  struct UndoEntry {
    LogOp op;
    int32_t table_id;
    int32_t page_hint;
    std::string before;  // encoded row (delete/update)
    std::string after;   // encoded row (insert/update)
  };

  struct Session {
    bool in_txn = false;
    int64_t txn_id = 0;
    std::vector<UndoEntry> undo;
    int64_t txn_log_bytes = 0;
    // Set when a deadlock abort rolled back an explicit transaction out
    // from under the client: every statement fails until the client
    // acknowledges with ROLLBACK (or COMMIT, which reports the abort).
    bool poisoned = false;
    // Distinguishes a quarantine-gate abort from a deadlock abort: the
    // poisoned-statement error stays kUnavailable/"[quarantine]" (retryable)
    // instead of the deadlock wording.
    bool quarantine_poisoned = false;
    // Repair-engine connections bypass the quarantine gate (they heal the
    // slices everyone else is fenced away from).
    bool quarantine_exempt = false;
    // Table and prefix-granule modes transaction `granted_txn` holds, so
    // the intention locks every statement re-requests on its ancestors
    // skip the lock manager. Stale once the session moves to a new txn.
    int64_t granted_txn = 0;
    std::vector<std::pair<concurrency::ResourceId, concurrency::LockMode>>
        granted_ancestors;
    // Serializes statements of one session (the wire layer already does;
    // this keeps direct multi-threaded use of a session id safe too).
    std::mutex mu;
  };

  // One entry of a statement's pre-declared lock plan.
  struct LockPlanEntry {
    concurrency::ResourceId res;
    concurrency::LockMode mode;
  };
  // The plan entry a statement was refused, and why.
  struct LockRefusal {
    LockPlanEntry entry;
    concurrency::LockAbortCause cause;
  };

  // Atomic mirrors of DbStats (sessions update them concurrently).
  struct StatCounters {
    std::atomic<int64_t> statements{0};
    std::atomic<int64_t> selects{0};
    std::atomic<int64_t> inserts{0};
    std::atomic<int64_t> updates{0};
    std::atomic<int64_t> deletes{0};
    std::atomic<int64_t> commits{0};
    std::atomic<int64_t> rollbacks{0};
    std::atomic<int64_t> deadlock_aborts{0};
  };

  std::shared_ptr<Session> FindSession(int64_t session_id);

  // Shared statement path; `concurrent` selects 2PL + latches vs the
  // serial-mode baseline (caller already holds serial_mu_ in that case).
  Result<ResultSet> StatementOnSession(Session& s, const sql::Statement& stmt,
                                       bool concurrent);

  Result<ResultSet> Dispatch(Session& s, const sql::Statement& stmt);
  // Dispatch under the catalog latch and per-table latches.
  Result<ResultSet> DispatchConcurrent(Session& s, const sql::Statement& stmt);

  Result<ResultSet> ExecSelect(Session& s, const sql::Statement& stmt);
  Result<ResultSet> ExecInsert(Session& s, const sql::Statement& stmt);
  Result<ResultSet> ExecUpdate(Session& s, const sql::Statement& stmt);
  Result<ResultSet> ExecDelete(Session& s, const sql::Statement& stmt);
  Result<ResultSet> ExecCreateTable(const sql::Statement& stmt);
  Result<ResultSet> ExecDropTable(const sql::Statement& stmt);
  Result<ResultSet> ExecCreateIndex(const sql::Statement& stmt);
  Result<ResultSet> ExecDropIndex(const sql::Statement& stmt);

  // Appends a successful DML/SELECT to the statement journal's pending
  // buffer for the session's open transaction.
  void JournalStmt(Session& s, const sql::Statement& stmt,
                   const ResultSet& result);

  void BeginTxn(Session& s);
  void CommitTxn(Session& s);
  Status RollbackTxn(Session& s);
  // RollbackTxn with the catalog latch and exclusive latches on every table
  // the transaction touched (concurrent-mode physical safety).
  Status RollbackTxnConcurrent(Session& s);

  // --- lock planning (concurrent mode) ---
  // Derives the statement's lock plan from its AST. Called under the shared
  // catalog latch; conservative — rows not provably inside one key or
  // key-prefix granule coarsen to a table lock. Never fails: unresolvable
  // names produce an empty or partial plan and the executor reports the
  // real error.
  void PlanStatementLocks(const sql::Statement& stmt,
                          std::vector<LockPlanEntry>* plan);
  // SELECT leg, defined in select_exec.cc next to the access-path planner
  // it mirrors.
  void PlanSelectLocks(const sql::Statement& stmt,
                       std::vector<LockPlanEntry>* plan);
  // Appends one primary-key access's lock path to `plan`: `intent` on the
  // table and on every proper-prefix granule above the deepest granule the
  // leading literal `key_exprs` pin, then `leaf` on that granule — the key
  // when every key column is pinned, a prefix granule when a leading run
  // is, the table itself when none is. `key_exprs` are in key-column order;
  // a missing, column-reading or uncoercible expression ends the run.
  void PlanKeyPath(int32_t table_id, const Schema& schema,
                   const std::vector<int>& key_columns,
                   const std::vector<const sql::Expr*>& key_exprs,
                   concurrency::LockMode intent, concurrency::LockMode leaf,
                   std::vector<LockPlanEntry>* plan);
  // Sorts the plan root to leaf (ResourceId order), merges duplicates to
  // their supremum, and acquires it for the session's transaction. On
  // deadlock or timeout fills `refused`; the transaction keeps already-held
  // locks and the caller rolls back.
  Status AcquirePlanLocks(Session& s, std::vector<LockPlanEntry>* plan,
                          LockRefusal* refused);
  // Appends the engine.deadlock_victim journal event for a refused plan.
  void JournalLockRefusal(const sql::Statement& stmt,
                          const LockRefusal& refused);

  // Appends a row-op WAL record in the flavor's style and tracks undo info.
  void LogRowOp(Session& s, LogOp op, int32_t table_id, const HeapTable& table,
                RowLoc loc, std::string before, std::string after);

  Result<HeapTable*> RequireTable(const std::string& name);

  // Aggregate-path SELECT executor (GROUP BY / aggregate functions).
  Result<ResultSet> ExecAggregateSelect(
      const sql::Statement& stmt,
      const std::vector<std::pair<HeapTable*, std::string>>& tables,
      const ColumnBindings& columns);

  // Recursively enumerates the (filtered) cross product of `tables`,
  // invoking `fn` with a complete RowBinding for each surviving tuple.
  // Uses primary-key index prefixes (index nested-loop join) where the WHERE
  // clause provides equality bindings; falls back to page scans. `columns`
  // binds every column reference the statement evaluates per row. Each
  // page read is pinned once and held until the scan ends.
  Status JoinScan(
      const sql::Statement& stmt,
      const std::vector<std::pair<HeapTable*, std::string>>& tables,
      const ColumnBindings& columns,
      const std::function<Status(const RowBinding&)>& fn);

  // Single-table row collection for UPDATE/DELETE: locations plus a copy of
  // the row bytes for every row satisfying `where` (index-accelerated),
  // whose column references `columns` binds. Pins like JoinScan.
  Result<std::vector<std::pair<RowLoc, std::string>>> CollectMatching(
      HeapTable* table, int32_t table_id, const std::string& effective_name,
      const sql::Expr* where, const ColumnBindings& columns);

  FlavorTraits traits_;
  BufferPool buffer_pool_;  // declared before catalog_ (tables pin through it)
  Catalog catalog_;
  WalLog wal_;
  StmtJournal stmt_journal_;
  IoModel io_model_;
  StatCounters stats_;

  concurrency::TransactionManager txn_mgr_;
  concurrency::QuarantineManager quarantine_;
  // Guards the catalog map: statements hold it shared while resolving and
  // executing; DDL holds it exclusive. Never held while blocking on a 2PL
  // lock (plan under the latch, release, acquire locks, re-take).
  mutable std::shared_mutex catalog_latch_;

  bool serial_mode_ = false;
  std::mutex serial_mu_;  // the old global mutex, serial mode only

  std::mutex sessions_mu_;
  std::unordered_map<int64_t, std::shared_ptr<Session>> sessions_;
  std::atomic<int64_t> next_session_id_{1};
  std::atomic<int64_t> next_txn_id_{1};
};

}  // namespace irdb
