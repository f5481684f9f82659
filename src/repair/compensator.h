// Compensator — selective undo of committed transactions (§3.3).
//
// Walks the reconstructed log backwards; for every row operation belonging
// to a transaction in the undo set it executes the compensating statement:
// DELETE→INSERT, INSERT→DELETE, UPDATE→reverse UPDATE, each addressed by row
// ID. Rows re-inserted during repair receive fresh row IDs, so an old→new
// row-ID mapping is maintained per table and consulted by all subsequent
// compensating statements; the mapping is discarded when the row's original
// INSERT log entry is reached.
//
// Compensating statements address rows within a single table and the remap
// is per table, so the walk splits into per-table batches (inverse log order
// kept within each) that touch disjoint row sets and commute. Every repair
// strategy applies them through one lane runner, CompensateLanes: one
// transaction per table on its own quarantine-exempt session, at every
// thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "flavor/flavor_traits.h"
#include "repair/analyzer.h"
#include "util/thread_pool.h"
#include "wire/connection.h"

namespace irdb::repair {

struct RepairReport {
  std::set<int64_t> undo_set;  // proxy txn ids rolled back
  int64_t ops_compensated = 0;
  int64_t compensating_inserts = 0;
  int64_t compensating_deletes = 0;
  int64_t compensating_updates = 0;
  int64_t rows_remapped = 0;
  int compensate_lanes = 1;  // per-table compensation transactions

  // Adds `part`'s statement counts (not its undo set or lane count).
  void Add(const RepairReport& part);
};

// Primary-key literals per undone op (pointers into
// DependencyAnalysis::ops). Populated only for key-sliced tables, where
// no undone op rewrote a primary key — so the annotated key is stable for
// the whole lane.
using OpKeyMap =
    std::map<const RepairOp*, std::vector<std::pair<std::string, Value>>>;

// One per-table compensation batch: the table's undone ops in inverse log
// order.
struct CompensationBatch {
  std::string table;  // lower-cased catalog name
  std::vector<const RepairOp*> ops;
  // Parallel to `ops` (or empty): primary-key literals appended to each
  // compensating WHERE, so the statement's lock plan names a single key
  // instead of coarsening to table X — clean keys of the same table stay
  // lockable while the lane runs. An empty inner vector means rowid-only
  // addressing for that op.
  std::vector<std::vector<std::pair<std::string, Value>>> keys;
};

// Splits the undo set into per-table batches in table-name order;
// `op_keys` (optional) supplies the PK literals per op (online repair's
// contaminated partition). `undo_proxy_ids` must be closed under the chosen
// dependency semantics — the batches do not re-derive it. Fails when a
// proxy id is missing from the log.
Result<std::vector<CompensationBatch>> BuildCompensationBatches(
    const DependencyAnalysis& analysis, const std::set<int64_t>& undo_proxy_ids,
    const OpKeyMap* op_keys = nullptr);

// Runs `body` as one transaction on a fresh quarantine-exempt session:
// BEGIN → body → COMMIT, or ROLLBACK when the body fails. A transaction
// that loses a deadlock (concurrency::IsDeadlockAbort) is retried whole on
// a new session, up to 4 attempts in all; any other failure is returned at
// once. Repair's compensation lanes and reenactment's replay both run
// through it.
Status RunRepairTxn(Database* db,
                    const std::function<Status(DbConnection*)>& body);

// Called on the lane's thread right after its transaction commits.
using LaneCommitHook = std::function<void(const CompensationBatch&)>;

// The lane runner: applies each batch as its own RunRepairTxn transaction —
// concurrently on a multi-lane `pool`, otherwise inline in batch order —
// and calls `on_commit` (may be empty) after each lane commits. Every lane
// runs to its commit or rollback whatever the others do, so a failure
// leaves exactly the failing tables uncompensated at any thread count.
// Lane reports merge into `report`; the first failing lane's status in
// batch order is returned.
Status CompensateLanes(Database* db,
                       const std::vector<CompensationBatch>& batches,
                       util::ThreadPool* pool, RepairReport* report,
                       const LaneCommitHook& on_commit = {});

}  // namespace irdb::repair
