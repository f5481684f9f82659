#include "repair/compensator.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <thread>

#include "concurrency/lock_manager.h"
#include "engine/database.h"
#include "obs/catalog.h"
#include "obs/trace.h"
#include "storage/bptree.h"
#include "proxy/rewriter.h"
#include "sql/ast.h"
#include "sql/printer.h"
#include "util/string_utils.h"

namespace irdb::repair {

namespace {

// Whole-transaction attempts RunRepairTxn makes before giving up on a
// transaction that keeps losing deadlocks.
constexpr int kRepairTxnAttempts = 4;

// Per-table old→new row-ID remapping with chain chasing (a repaired row can
// be re-inserted more than once if several of its writers are undone).
// Backed by the storage layer's B+ tree on order-preserving encoded int64
// keys — the same structure the table indexes use, exercised here on a
// second key space (long repair streams touch many addresses).
class RowIdRemap {
 public:
  int64_t Resolve(const std::string& table, int64_t address) const {
    auto t = maps_.find(table);
    if (t == maps_.end()) return address;
    // Chase the chain; cycles are impossible because new row IDs are fresh.
    for (uint64_t next = 0; Find(t->second, address, &next);) {
      address = static_cast<int64_t>(next);
    }
    return address;
  }

  void Add(const std::string& table, int64_t old_address, int64_t new_address) {
    Discard(table, old_address);  // one mapping per old address
    maps_[table].Insert(Encode(old_address), static_cast<uint64_t>(new_address));
  }

  void Discard(const std::string& table, int64_t old_address) {
    auto t = maps_.find(table);
    uint64_t prev = 0;
    if (t != maps_.end() && Find(t->second, old_address, &prev)) {
      t->second.Erase(Encode(old_address), prev);
    }
  }

 private:
  // One 9-byte slot: short enough for std::string's inline buffer.
  static std::string Encode(int64_t address) {
    std::string key;
    AppendEncodedKeyValue(Value::Int(address), &key);
    return key;
  }

  // The new address `address` maps to, if any.
  static bool Find(const BPTree& tree, int64_t address, uint64_t* out) {
    const std::string key = Encode(address);
    const BPTree::Cursor c = tree.Seek(key);
    if (!c.Valid() || c.key() != key) return false;
    *out = c.value();
    return true;
  }

  std::map<std::string, BPTree> maps_;
};

sql::ExprPtr AddressPredicate(const std::string& column, int64_t address) {
  return sql::MakeBinary(sql::BinaryOp::kEq, sql::MakeColumnRef("", column),
                         sql::MakeLiteral(Value::Int(address)));
}

// Row address plus (optionally) the row's primary-key literals. The key
// conjuncts are redundant for row selection — the address is unique — but
// they let the engine's lock planner name a single key lock instead of
// coarsening to table X, which is what keeps clean keys of the table
// available while an online-repair lane heals the quarantined ones.
sql::ExprPtr RowPredicate(
    const std::string& address_column, int64_t address,
    const std::vector<std::pair<std::string, Value>>* key_literals) {
  sql::ExprPtr where = AddressPredicate(address_column, address);
  if (key_literals == nullptr) return where;
  for (const auto& [col, v] : *key_literals) {
    where = sql::MakeBinary(
        sql::BinaryOp::kAnd, std::move(where),
        sql::MakeBinary(sql::BinaryOp::kEq, sql::MakeColumnRef("", col),
                        sql::MakeLiteral(v)));
  }
  return where;
}

// Emits and executes the compensating statement for one op. Batches feed it
// their ops in inverse log order, with a remap that has seen every earlier
// op of the same table. `key_literals` (nullable) adds PK conjuncts via
// RowPredicate.
Status CompensateOp(const RepairOp& op, DbConnection* conn,
                    const FlavorTraits& traits,
                    const std::string& address_column, RowIdRemap* remap,
                    RepairReport* report,
                    const std::vector<std::pair<std::string, Value>>*
                        key_literals) {
  const std::string table_key = ToLowerAscii(op.table);
  auto run = [&](const sql::Statement& stmt,
                 int64_t expect_affected) -> Status {
    auto r = conn->Execute(sql::PrintStatement(stmt));
    if (!r.ok()) return r.status();
    if (expect_affected >= 0 && r->affected != expect_affected) {
      return Status::Internal("compensating statement touched " +
                              std::to_string(r->affected) + " rows, expected " +
                              std::to_string(expect_affected) + ": " +
                              sql::PrintStatement(stmt));
    }
    ++report->ops_compensated;
    return Status::Ok();
  };

  switch (op.op) {
    case LogOp::kInsert: {
      // Undo an insert: delete the row (at its possibly-remapped address).
      auto stmt = sql::MakeStatement(sql::StatementKind::kDelete);
      stmt->table = op.table;
      stmt->where = RowPredicate(address_column,
                                 remap->Resolve(table_key, op.row_address),
                                 key_literals);
      IRDB_RETURN_IF_ERROR(run(*stmt, 1));
      ++report->compensating_deletes;
      // The row's lifetime starts here; any mapping for it is now obsolete.
      remap->Discard(table_key, op.row_address);
      break;
    }
    case LogOp::kDelete: {
      // Undo a delete: put the row back. Flavors with a hidden rowid
      // cannot force the old one — record the fresh ID in the remap table.
      // The Sybase flavor's rid is an ordinary (identity) column carried in
      // op.values, so the original address is restored exactly.
      auto stmt = sql::MakeStatement(sql::StatementKind::kInsert);
      stmt->table = op.table;
      std::vector<sql::ExprPtr> row;
      for (const auto& [col, v] : op.values) {
        stmt->insert_columns.push_back(col);
        row.push_back(sql::MakeLiteral(v));
      }
      stmt->insert_rows.push_back(std::move(row));
      auto r = conn->Execute(sql::PrintStatement(*stmt));
      if (!r.ok()) return r.status();
      ++report->ops_compensated;
      ++report->compensating_inserts;
      if (traits.has_rowid) {
        IRDB_CHECK(r->last_rowid != kNoRowId);
        if (r->last_rowid != op.row_address) {
          remap->Add(table_key, op.row_address, r->last_rowid);
          ++report->rows_remapped;
        }
      }
      break;
    }
    case LogOp::kUpdate: {
      // Undo an update: restore the changed columns' before values.
      auto stmt = sql::MakeStatement(sql::StatementKind::kUpdate);
      stmt->table = op.table;
      for (const auto& [col, v] : op.values) {
        stmt->assignments.emplace_back(col, sql::MakeLiteral(v));
      }
      stmt->where = RowPredicate(address_column,
                                 remap->Resolve(table_key, op.row_address),
                                 key_literals);
      IRDB_RETURN_IF_ERROR(run(*stmt, 1));
      ++report->compensating_updates;
      break;
    }
    default:
      break;
  }
  return Status::Ok();
}

// Applies one batch through `conn`, inside the caller's transaction.
Status CompensateBatch(const CompensationBatch& batch, DbConnection* conn,
                       const FlavorTraits& traits, RepairReport* report) {
  const std::string address_column =
      traits.has_rowid ? traits.rowid_name : proxy::kSybaseRowIdColumn;
  RowIdRemap remap;
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const std::vector<std::pair<std::string, Value>>* key = nullptr;
    if (i < batch.keys.size() && !batch.keys[i].empty()) key = &batch.keys[i];
    IRDB_RETURN_IF_ERROR(CompensateOp(*batch.ops[i], conn, traits,
                                      address_column, &remap, report, key));
  }
  return Status::Ok();
}

}  // namespace

void RepairReport::Add(const RepairReport& part) {
  ops_compensated += part.ops_compensated;
  compensating_inserts += part.compensating_inserts;
  compensating_deletes += part.compensating_deletes;
  compensating_updates += part.compensating_updates;
  rows_remapped += part.rows_remapped;
}

Result<std::vector<CompensationBatch>> BuildCompensationBatches(
    const DependencyAnalysis& analysis, const std::set<int64_t>& undo_proxy_ids,
    const OpKeyMap* op_keys) {
  std::set<int64_t> undo_internal;
  for (int64_t proxy_id : undo_proxy_ids) {
    auto it = analysis.proxy_to_internal.find(proxy_id);
    if (it == analysis.proxy_to_internal.end()) {
      return Status::NotFound("proxy transaction " + std::to_string(proxy_id) +
                              " not found in the log");
    }
    undo_internal.insert(it->second);
  }
  std::map<std::string, CompensationBatch> by_table;
  for (auto it = analysis.ops.rbegin(); it != analysis.ops.rend(); ++it) {
    if (undo_internal.count(it->internal_txn_id) == 0) continue;
    const std::string table_key = ToLowerAscii(it->table);
    CompensationBatch& batch = by_table[table_key];
    batch.table = table_key;
    batch.ops.push_back(&*it);
    std::vector<std::pair<std::string, Value>> key;
    if (op_keys != nullptr) {
      auto hit = op_keys->find(&*it);
      if (hit != op_keys->end()) key = hit->second;
    }
    batch.keys.push_back(std::move(key));
  }
  std::vector<CompensationBatch> out;
  out.reserve(by_table.size());
  for (auto& [table, batch] : by_table) out.push_back(std::move(batch));
  return out;
}

Status RunRepairTxn(Database* db,
                    const std::function<Status(DbConnection*)>& body) {
  Status st = Status::Ok();
  for (int attempt = 0; attempt < kRepairTxnAttempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(attempt));
    }
    DirectConnection conn(db);
    db->SetSessionQuarantineExempt(conn.session_id(), true);
    auto begin = conn.Execute("BEGIN");
    if (!begin.ok()) return begin.status();
    st = body(&conn);
    if (st.ok()) {
      auto commit = conn.Execute("COMMIT");
      if (commit.ok()) return Status::Ok();
      st = commit.status();
    } else {
      (void)conn.Execute("ROLLBACK");
    }
    if (!concurrency::IsDeadlockAbort(st)) return st;
  }
  return st;
}

Status CompensateLanes(Database* db,
                       const std::vector<CompensationBatch>& batches,
                       util::ThreadPool* pool, RepairReport* report,
                       const LaneCommitHook& on_commit) {
  std::vector<Status> lane_status(batches.size(), Status::Ok());
  std::vector<RepairReport> lane_report(batches.size());
  auto run_lane = [&](size_t idx) {
    const CompensationBatch& batch = batches[idx];
    obs::Span lane_span(obs::span::kRepairCompensateLane);
    lane_span.AddArg("lane", static_cast<int64_t>(idx));
    lane_span.AddArg("tables", 1);
    lane_span.AddArg("stmts", static_cast<int64_t>(batch.ops.size()));
    lane_status[idx] = RunRepairTxn(db, [&](DbConnection* conn) {
      lane_report[idx] = RepairReport{};  // a retry starts the count over
      return CompensateBatch(batch, conn, db->traits(), &lane_report[idx]);
    });
    if (lane_status[idx].ok() && on_commit) on_commit(batch);
  };
  if (pool != nullptr && pool->lanes() > 1 && batches.size() > 1) {
    std::vector<std::future<void>> pending;
    pending.reserve(batches.size());
    for (size_t i = 0; i < batches.size(); ++i) {
      pending.push_back(pool->Submit([&, i] { run_lane(i); }));
    }
    for (std::future<void>& f : pending) f.wait();
  } else {
    for (size_t i = 0; i < batches.size(); ++i) run_lane(i);
  }
  for (const RepairReport& part : lane_report) report->Add(part);
  report->compensate_lanes = std::max<int>(1, static_cast<int>(batches.size()));
  for (const Status& st : lane_status) {
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

}  // namespace irdb::repair
