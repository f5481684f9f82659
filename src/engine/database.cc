#include "engine/database.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "obs/catalog.h"
#include "obs/journal.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/failpoint.h"
#include "util/string_utils.h"

namespace irdb {

namespace {

Status PoisonedTxnError() {
  return Status::FailedPrecondition(
      "transaction aborted by deadlock; issue ROLLBACK before continuing");
}

// Retryable, like the gate rejection itself: the client backs off and
// re-runs the transaction once the slice is released.
Status QuarantinePoisonedError() {
  return Status::Unavailable(
      std::string(kQuarantineTag) +
      " transaction was rolled back by online repair; issue ROLLBACK and "
      "retry after release");
}

// True if the expression reads any column (i.e. is not evaluable against an
// empty binding). Used by the lock planner to decide whether a key value is
// known before execution.
bool ExprHasColumnRef(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kColumnRef) return true;
  if (e.lhs && ExprHasColumnRef(*e.lhs)) return true;
  if (e.rhs && ExprHasColumnRef(*e.rhs)) return true;
  if (e.low && ExprHasColumnRef(*e.low)) return true;
  if (e.high && ExprHasColumnRef(*e.high)) return true;
  for (const auto& child : e.list) {
    if (child && ExprHasColumnRef(*child)) return true;
  }
  return false;
}

// Collects `col = <column-free expr>` bindings from the AND-conjuncts of
// `where`, keyed by lower-cased column name. Qualifiers that name another
// table disqualify the conjunct; the first binding per column wins.
void CollectKeyEqExprs(
    const sql::Expr* where, const std::string& table_name,
    std::unordered_map<std::string, const sql::Expr*>* out) {
  if (where == nullptr || where->kind != sql::ExprKind::kBinary) return;
  if (where->bin_op == sql::BinaryOp::kAnd) {
    CollectKeyEqExprs(where->lhs.get(), table_name, out);
    CollectKeyEqExprs(where->rhs.get(), table_name, out);
    return;
  }
  if (where->bin_op != sql::BinaryOp::kEq) return;
  const sql::Expr* col = nullptr;
  const sql::Expr* val = nullptr;
  for (int flip = 0; flip < 2; ++flip) {
    const sql::Expr* a = flip == 0 ? where->lhs.get() : where->rhs.get();
    const sql::Expr* b = flip == 0 ? where->rhs.get() : where->lhs.get();
    if (a != nullptr && a->kind == sql::ExprKind::kColumnRef && b != nullptr &&
        !ExprHasColumnRef(*b)) {
      col = a;
      val = b;
      break;
    }
  }
  if (col == nullptr) return;
  if (!col->table.empty() && !EqualsIgnoreCase(col->table, table_name)) return;
  out->emplace(ToLowerAscii(col->column), val);
}

}  // namespace

Database::Database(FlavorTraits traits, IoCostParams io_params)
    : traits_(std::move(traits)), io_model_(io_params) {
  catalog_.AttachBufferPool(&buffer_pool_);
  sessions_[0] = std::make_shared<Session>();  // convenience session
}

Database::~Database() = default;

int64_t Database::OpenSession() {
  const int64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_[id] = std::make_shared<Session>();
  return id;
}

void Database::CloseSession(int64_t session_id) {
  std::shared_ptr<Session> sp;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    sp = it->second;
    sessions_.erase(it);
  }
  if (serial_mode_) {
    std::lock_guard<std::mutex> global(serial_mu_);
    if (sp->in_txn) (void)RollbackTxn(*sp);  // abandon open work
    return;
  }
  std::lock_guard<std::mutex> session_lock(sp->mu);
  if (sp->in_txn) {
    (void)RollbackTxnConcurrent(*sp);
    txn_mgr_.Abort(sp->txn_id);
  }
  sp->poisoned = false;
  sp->quarantine_poisoned = false;
}

std::shared_ptr<Database::Session> Database::FindSession(int64_t session_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

Result<ResultSet> Database::Execute(int64_t session_id, std::string_view sql_text) {
  auto parsed = sql::Parse(sql_text);
  if (!parsed.ok()) return parsed.status();
  return ExecuteParsed(session_id, **parsed);
}

Result<ResultSet> Database::ExecuteParsed(int64_t session_id,
                                          const sql::Statement& stmt) {
  // Injected before any state change: a triggered fault behaves like a
  // statement that never arrived, so retrying it is always safe.
  if (fail::Triggered("engine.execute")) return fail::Inject("engine.execute");
  std::shared_ptr<Session> sp = FindSession(session_id);
  if (sp == nullptr) {
    return Status::InvalidArgument("unknown session " + std::to_string(session_id));
  }
  if (serial_mode_) {
    std::lock_guard<std::mutex> global(serial_mu_);
    return StatementOnSession(*sp, stmt, /*concurrent=*/false);
  }
  std::lock_guard<std::mutex> session_lock(sp->mu);
  return StatementOnSession(*sp, stmt, /*concurrent=*/true);
}

Result<ResultSet> Database::StatementOnSession(Session& s,
                                               const sql::Statement& stmt,
                                               bool concurrent) {
  stats_.statements.fetch_add(1, std::memory_order_relaxed);
  io_model_.AccountStatement();

  switch (stmt.kind) {
    case sql::StatementKind::kBegin:
      if (s.in_txn) return Status::FailedPrecondition("transaction already open");
      s.poisoned = false;  // starting fresh acknowledges a prior abort
      s.quarantine_poisoned = false;
      BeginTxn(s);
      if (concurrent) txn_mgr_.Begin(s.txn_id);
      return ResultSet{};
    case sql::StatementKind::kCommit: {
      if (s.poisoned) {
        // The transaction is already gone; report the abort once.
        s.poisoned = false;
        if (s.quarantine_poisoned) {
          s.quarantine_poisoned = false;
          return QuarantinePoisonedError();
        }
        return Status::Aborted(
            "[deadlock] transaction was aborted by deadlock and rolled back");
      }
      if (!s.in_txn) return Status::FailedPrecondition("no open transaction");
      CommitTxn(s);
      if (concurrent) txn_mgr_.Commit(s.txn_id);
      return ResultSet{};
    }
    case sql::StatementKind::kRollback: {
      if (s.poisoned) {
        s.poisoned = false;  // acknowledged; nothing left to undo
        s.quarantine_poisoned = false;
        return ResultSet{};
      }
      if (!s.in_txn) return Status::FailedPrecondition("no open transaction");
      Status rb = concurrent ? RollbackTxnConcurrent(s) : RollbackTxn(s);
      if (concurrent) txn_mgr_.Abort(s.txn_id);
      IRDB_RETURN_IF_ERROR(rb);
      return ResultSet{};
    }
    case sql::StatementKind::kCreateTable:
      if (s.poisoned) {
        return s.quarantine_poisoned ? QuarantinePoisonedError()
                                     : PoisonedTxnError();
      }
      if (concurrent) {
        std::unique_lock<std::shared_mutex> ddl(catalog_latch_);
        return ExecCreateTable(stmt);
      }
      return ExecCreateTable(stmt);
    case sql::StatementKind::kDropTable:
      if (s.poisoned) {
        return s.quarantine_poisoned ? QuarantinePoisonedError()
                                     : PoisonedTxnError();
      }
      if (concurrent) {
        std::unique_lock<std::shared_mutex> ddl(catalog_latch_);
        // DDL bypasses the lock planner, so the quarantine gate is applied
        // here: dropping a table with fenced slices would yank storage out
        // from under the repair's compensation lanes.
        if (quarantine_.active() && !s.quarantine_exempt) {
          auto id = catalog_.TableId(stmt.table);
          if (id.ok() &&
              quarantine_.Blocks(concurrency::ResourceId::Table(*id),
                                 concurrency::LockMode::kExclusive)) {
            quarantine_.CountReject();
            return Status::Unavailable(
                std::string(kQuarantineTag) +
                " table quarantined by online repair; retry after release");
          }
        }
        return ExecDropTable(stmt);
      }
      return ExecDropTable(stmt);
    case sql::StatementKind::kCreateIndex:
    case sql::StatementKind::kDropIndex: {
      if (s.poisoned) {
        return s.quarantine_poisoned ? QuarantinePoisonedError()
                                     : PoisonedTxnError();
      }
      auto exec = [&]() -> Result<ResultSet> {
        return stmt.kind == sql::StatementKind::kCreateIndex
                   ? ExecCreateIndex(stmt)
                   : ExecDropIndex(stmt);
      };
      if (!concurrent) return exec();
      std::unique_lock<std::shared_mutex> ddl(catalog_latch_);
      // Same gate as DROP TABLE: index DDL rewrites table metadata the
      // repair's compensation lanes may be standing on.
      if (quarantine_.active() && !s.quarantine_exempt) {
        const HeapTable* owner =
            stmt.kind == sql::StatementKind::kCreateIndex
                ? catalog_.Find(stmt.table)
                : catalog_.FindTableOfIndex(stmt.index_name);
        if (owner != nullptr) {
          auto id = catalog_.TableId(owner->name());
          if (id.ok() &&
              quarantine_.Blocks(concurrency::ResourceId::Table(*id),
                                 concurrency::LockMode::kExclusive)) {
            quarantine_.CountReject();
            return Status::Unavailable(
                std::string(kQuarantineTag) +
                " table quarantined by online repair; retry after release");
          }
        }
      }
      return exec();
    }
    default:
      break;
  }

  if (s.poisoned) {
    return s.quarantine_poisoned ? QuarantinePoisonedError()
                                 : PoisonedTxnError();
  }

  // DML / SELECT: autocommit when no transaction is open.
  const bool autocommit = !s.in_txn;

  if (!concurrent) {
    if (autocommit) BeginTxn(s);
    Result<ResultSet> result = Dispatch(s, stmt);
    if (result.ok()) {
      JournalStmt(s, stmt, *result);
      if (autocommit) CommitTxn(s);
      return result;
    }
    // A failed statement aborts the enclosing transaction (statement-level
    // atomicity is not implemented; the whole transaction is undone instead,
    // like PostgreSQL's abort-until-rollback behaviour collapsed into one
    // step).
    (void)RollbackTxn(s);
    return result;
  }

  // Concurrent path: derive the lock plan under the shared catalog latch,
  // release it, then block on the 2PL locks (never wait on a lock while
  // holding any latch), then execute under per-table latches.
  std::vector<LockPlanEntry> plan;
  {
    std::shared_lock<std::shared_mutex> cat(catalog_latch_);
    PlanStatementLocks(stmt, &plan);
  }
  // Quarantine gate (DESIGN.md §5g): while an online repair holds a
  // quarantine, statements whose lock plan touches a fenced slice are
  // rejected with a retryable, "[quarantine]"-tagged kUnavailable before
  // acquiring any lock. A session whose OPEN transaction already pins a
  // quarantined slice is aborted outright — letting it continue could
  // deadlock the repair's drain pass against locks the gate would never
  // let the session extend past.
  if (quarantine_.active() && !s.quarantine_exempt) {
    bool blocked = false;
    for (const LockPlanEntry& e : plan) {
      if (quarantine_.Blocks(e.res, e.mode)) {
        blocked = true;
        break;
      }
    }
    if (!blocked && s.in_txn &&
        quarantine_.HoldsOverlapping(txn_mgr_.locks(), s.txn_id)) {
      blocked = true;
    }
    if (blocked) {
      quarantine_.CountReject();
      if (s.in_txn) {
        Status rb = RollbackTxnConcurrent(s);
        txn_mgr_.Abort(s.txn_id);
        s.poisoned = true;
        s.quarantine_poisoned = true;
        IRDB_RETURN_IF_ERROR(rb);
      }
      return Status::Unavailable(
          std::string(kQuarantineTag) +
          " slice quarantined by online repair; retry after release");
    }
  }
  if (autocommit) {
    BeginTxn(s);
    txn_mgr_.Begin(s.txn_id);
  }
  LockRefusal refused;
  if (Status locked = AcquirePlanLocks(s, &plan, &refused);
      !locked.ok()) {
    // This transaction is the deadlock victim: undo everything it has done
    // (no effects from *this* statement exist yet — locks come first),
    // release its locks, and surface the tagged abort. For autocommit the
    // statement was the whole transaction, so retrying it is safe and the
    // tag is widened to the retryable form; an explicit transaction's
    // client must acknowledge the abort with ROLLBACK before continuing.
    stats_.deadlock_aborts.fetch_add(1, std::memory_order_relaxed);
    JournalLockRefusal(stmt, refused);
    Status rb = RollbackTxnConcurrent(s);
    txn_mgr_.Abort(s.txn_id);
    IRDB_RETURN_IF_ERROR(rb);
    if (autocommit) {
      return Status::Aborted(std::string(kRetryableAbortTag) + " " +
                             locked.message());
    }
    s.poisoned = true;
    return locked;
  }
  Result<ResultSet> result = DispatchConcurrent(s, stmt);
  if (result.ok()) {
    JournalStmt(s, stmt, *result);
    if (autocommit) {
      CommitTxn(s);
      txn_mgr_.Commit(s.txn_id);
    }
    return result;
  }
  (void)RollbackTxnConcurrent(s);
  txn_mgr_.Abort(s.txn_id);
  return result;
}

Result<ResultSet> Database::Dispatch(Session& s, const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      stats_.selects.fetch_add(1, std::memory_order_relaxed);
      return ExecSelect(s, stmt);
    case sql::StatementKind::kInsert:
      stats_.inserts.fetch_add(1, std::memory_order_relaxed);
      return ExecInsert(s, stmt);
    case sql::StatementKind::kUpdate:
      stats_.updates.fetch_add(1, std::memory_order_relaxed);
      return ExecUpdate(s, stmt);
    case sql::StatementKind::kDelete:
      stats_.deletes.fetch_add(1, std::memory_order_relaxed);
      return ExecDelete(s, stmt);
    default:
      return Status::Internal("Dispatch: unexpected statement kind");
  }
}

Result<ResultSet> Database::DispatchConcurrent(Session& s,
                                               const sql::Statement& stmt) {
  std::shared_lock<std::shared_mutex> cat(catalog_latch_);
  if (stmt.kind == sql::StatementKind::kSelect) {
    // Shared latches on every resolvable FROM table, in table-id order.
    std::vector<std::pair<int32_t, HeapTable*>> tabs;
    for (const sql::TableRef& tr : stmt.from) {
      HeapTable* t = catalog_.Find(tr.name);
      if (t == nullptr) continue;  // executor reports the missing table
      auto id = catalog_.TableId(tr.name);
      if (id.ok()) tabs.emplace_back(*id, t);
    }
    std::sort(tabs.begin(), tabs.end());
    tabs.erase(std::unique(tabs.begin(), tabs.end()), tabs.end());
    std::vector<std::shared_lock<std::shared_mutex>> latches;
    latches.reserve(tabs.size());
    for (auto& [id, t] : tabs) latches.emplace_back(t->latch());
    return Dispatch(s, stmt);
  }
  // DML targets one table: exclusive latch for the statement's duration.
  HeapTable* t = catalog_.Find(stmt.table);
  if (t == nullptr) return Dispatch(s, stmt);  // error path
  std::unique_lock<std::shared_mutex> latch(t->latch());
  return Dispatch(s, stmt);
}

Result<HeapTable*> Database::RequireTable(const std::string& name) {
  HeapTable* t = catalog_.Find(name);
  if (t == nullptr) return Status::NotFound("no table named " + name);
  return t;
}

DbStats Database::stats() const {
  DbStats d;
  d.statements = stats_.statements.load(std::memory_order_relaxed);
  d.selects = stats_.selects.load(std::memory_order_relaxed);
  d.inserts = stats_.inserts.load(std::memory_order_relaxed);
  d.updates = stats_.updates.load(std::memory_order_relaxed);
  d.deletes = stats_.deletes.load(std::memory_order_relaxed);
  d.commits = stats_.commits.load(std::memory_order_relaxed);
  d.rollbacks = stats_.rollbacks.load(std::memory_order_relaxed);
  d.deadlock_aborts = stats_.deadlock_aborts.load(std::memory_order_relaxed);
  return d;
}

// ------------------------------------------------------------ lock planning

namespace {

// One FNV pass over a primary key's coerced values, root to leaf: `visit`
// sees the running hash after each pinned column — the name of the prefix
// granule of that depth, or of the key once every column is pinned (the
// full key's hash, as the storage layer would compute it). `value_at(i)`
// yields key column i's value, or nullopt where the pinned run ends; a
// value that does not coerce to the column's type ends it too.
template <typename ValueAt, typename Visit>
void StreamKeyHashes(const Schema& schema, const std::vector<int>& key_columns,
                     ValueAt value_at, Visit visit) {
  std::string repr;
  uint64_t h = Fnv1a({});  // offset basis
  for (size_t depth = 0; depth < key_columns.size(); ++depth) {
    std::optional<Value> v = value_at(depth);
    if (!v.has_value()) return;
    auto coerced =
        schema.CoerceForColumn(static_cast<size_t>(key_columns[depth]), *v);
    if (!coerced.ok()) return;
    repr.clear();
    coerced->AppendTo(&repr);
    h = Fnv1a(repr, h);
    visit(depth + 1, h);
  }
}

concurrency::ResourceId GranuleAt(int32_t table_id, size_t depth, size_t n,
                                  uint64_t hash) {
  return depth < n ? concurrency::ResourceId::Prefix(table_id, depth, hash)
                   : concurrency::ResourceId::Key(table_id, hash);
}

const char* StatementKindName(sql::StatementKind k) {
  switch (k) {
    case sql::StatementKind::kSelect: return "SELECT";
    case sql::StatementKind::kInsert: return "INSERT";
    case sql::StatementKind::kUpdate: return "UPDATE";
    case sql::StatementKind::kDelete: return "DELETE";
    default: return "OTHER";
  }
}

}  // namespace

void Database::PlanKeyPath(int32_t table_id, const Schema& schema,
                           const std::vector<int>& key_columns,
                           const std::vector<const sql::Expr*>& key_exprs,
                           concurrency::LockMode intent,
                           concurrency::LockMode leaf,
                           std::vector<LockPlanEntry>* plan) {
  plan->push_back({concurrency::ResourceId::Table(table_id), intent});
  const RowBinding empty_binding;
  const size_t n = key_columns.size();
  StreamKeyHashes(
      schema, key_columns,
      [&](size_t i) -> std::optional<Value> {
        const sql::Expr* e = i < key_exprs.size() ? key_exprs[i] : nullptr;
        if (e == nullptr || ExprHasColumnRef(*e)) return std::nullopt;
        auto v = Eval(*e, empty_binding);
        if (!v.ok()) return std::nullopt;
        return std::move(*v);
      },
      [&](size_t depth, uint64_t hash) {
        plan->push_back({GranuleAt(table_id, depth, n, hash), intent});
      });
  plan->back().mode = leaf;  // the deepest pinned granule
}

void Database::PlanStatementLocks(const sql::Statement& stmt,
                                  std::vector<LockPlanEntry>* plan) {
  using concurrency::LockMode;
  using concurrency::ResourceId;

  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      PlanSelectLocks(stmt, plan);
      return;

    case sql::StatementKind::kInsert: {
      auto id = catalog_.TableId(stmt.table);
      HeapTable* table = catalog_.Find(stmt.table);
      if (!id.ok() || table == nullptr) return;  // executor reports
      const Schema& schema = table->schema();
      const TableIndex* index = table->index();
      if (index == nullptr) {
        // Appends under IX; no keys to name.
        plan->push_back(
            {ResourceId::Table(*id), LockMode::kIntentionExclusive});
        return;
      }

      // Map provided values to column indices (mirrors ExecInsert).
      std::vector<int> target_cols;
      if (stmt.insert_columns.empty()) {
        for (size_t i = 0; i < schema.num_columns(); ++i) {
          target_cols.push_back(static_cast<int>(i));
        }
      } else {
        for (const std::string& name : stmt.insert_columns) {
          const int idx = schema.FindColumn(name);
          if (idx < 0) return;  // executor reports
          target_cols.push_back(idx);
        }
      }
      // Each row X-locks its key. A key not known before execution
      // (identity column, expression) X-locks the granule its literal
      // prefix does pin — the table when none — so no reader of that
      // granule can miss the new row.
      std::vector<const sql::Expr*> key_exprs;
      for (const auto& value_exprs : stmt.insert_rows) {
        key_exprs.clear();
        for (int kc : index->key_columns()) {
          const sql::Expr* e = nullptr;
          for (size_t j = 0; j < target_cols.size(); ++j) {
            if (target_cols[j] == kc && j < value_exprs.size()) {
              e = value_exprs[j].get();
              break;
            }
          }
          key_exprs.push_back(e);  // nullptr → identity/default-assigned
        }
        PlanKeyPath(*id, schema, index->key_columns(), key_exprs,
                    LockMode::kIntentionExclusive, LockMode::kExclusive, plan);
      }
      return;
    }

    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete: {
      auto id = catalog_.TableId(stmt.table);
      HeapTable* table = catalog_.Find(stmt.table);
      if (!id.ok() || table == nullptr) return;
      const Schema& schema = table->schema();
      const TableIndex* index = table->index();
      if (index == nullptr) {
        plan->push_back({ResourceId::Table(*id), LockMode::kExclusive});
        return;
      }
      // An UPDATE that assigns a key column would change the row's lock
      // name mid-transaction; coarsen to table X.
      for (const auto& [name, expr] : stmt.assignments) {
        (void)expr;
        for (int kc : index->key_columns()) {
          if (EqualsIgnoreCase(schema.column(static_cast<size_t>(kc)).name,
                               name)) {
            plan->push_back({ResourceId::Table(*id), LockMode::kExclusive});
            return;
          }
        }
      }
      // Every row the WHERE can match lies inside the granule its literal
      // key-column equalities pin.
      std::unordered_map<std::string, const sql::Expr*> eq;
      CollectKeyEqExprs(stmt.where.get(), stmt.table, &eq);
      std::vector<const sql::Expr*> key_exprs;
      for (int kc : index->key_columns()) {
        auto it = eq.find(
            ToLowerAscii(schema.column(static_cast<size_t>(kc)).name));
        if (it == eq.end()) break;
        key_exprs.push_back(it->second);
      }
      PlanKeyPath(*id, schema, index->key_columns(), key_exprs,
                  LockMode::kIntentionExclusive, LockMode::kExclusive, plan);
      return;
    }

    default:
      return;  // txn control & DDL handled elsewhere
  }
}

Status Database::AcquirePlanLocks(Session& s, std::vector<LockPlanEntry>* plan,
                                  LockRefusal* refused) {
  using concurrency::LockSupremum;
  // Deterministic root-to-leaf order (table, level, depth, hash) keeps
  // single-statement plans deadlock-free against each other and never
  // takes a granule before the granules enclosing it; cycles can only come
  // from multi-statement transactions, which is what the waits-for
  // detector is for. Duplicate resources merge to the supremum.
  std::vector<LockPlanEntry>& sorted = *plan;
  std::sort(sorted.begin(), sorted.end(),
            [](const LockPlanEntry& a, const LockPlanEntry& b) {
              return a.res < b.res;
            });
  size_t out = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (out > 0 && sorted[out - 1].res == sorted[i].res) {
      sorted[out - 1].mode = LockSupremum(sorted[out - 1].mode, sorted[i].mode);
    } else {
      sorted[out++] = sorted[i];
    }
  }
  sorted.resize(out);
  if (s.granted_txn != s.txn_id) {
    s.granted_txn = s.txn_id;
    s.granted_ancestors.clear();
  }
  for (const LockPlanEntry& e : sorted) {
    // An ancestor this transaction already holds strongly enough is a
    // no-op in the lock manager too; answer it here, without its mutex.
    concurrency::LockMode* held = nullptr;
    if (!e.res.is_key()) {
      for (auto& [res, mode] : s.granted_ancestors) {
        if (res == e.res) {
          held = &mode;
          break;
        }
      }
      if (held != nullptr && LockSupremum(*held, e.mode) == *held) continue;
    }
    Status st =
        txn_mgr_.locks().Acquire(s.txn_id, e.res, e.mode, &refused->cause);
    if (!st.ok()) {
      refused->entry = e;
      return st;
    }
    if (held != nullptr) {
      *held = LockSupremum(*held, e.mode);
    } else if (!e.res.is_key()) {
      s.granted_ancestors.emplace_back(e.res, e.mode);
    }
  }
  return Status::Ok();
}

void Database::JournalLockRefusal(const sql::Statement& stmt,
                                  const LockRefusal& refused) {
  std::string table;
  {
    std::shared_lock<std::shared_mutex> cat(catalog_latch_);
    const HeapTable* t = catalog_.FindById(refused.entry.res.table_id);
    table = t != nullptr ? t->name()
                         : std::to_string(refused.entry.res.table_id);
  }
  const concurrency::LockAbortCause& cause = refused.cause;
  obs::EventJournal::Default().Append(
      obs::event::kEngineDeadlockVictim,
      {{"table", std::move(table)},
       {"level", concurrency::LockLevelName(refused.entry.res.level)},
       {"requested", concurrency::LockModeName(refused.entry.mode)},
       {"held", cause.held ? concurrency::LockModeName(*cause.held) : "-"},
       {"cause", cause.timeout ? "timeout" : "cycle"},
       {"stmt", StatementKindName(stmt.kind)}});
}

// ------------------------------------------------------------------ txn ctl

void Database::JournalStmt(Session& s, const sql::Statement& stmt,
                           const ResultSet& result) {
  StmtRecord rec;
  rec.is_select = stmt.kind == sql::StatementKind::kSelect;
  rec.text = sql::PrintStatement(stmt);
  rec.rows_returned = static_cast<int64_t>(result.rows.size());
  rec.rows_affected = result.affected;
  stmt_journal_.Record(s.txn_id, std::move(rec));
}

void Database::BeginTxn(Session& s) {
  s.in_txn = true;
  s.txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  s.undo.clear();
  s.txn_log_bytes = 0;
  LogRecord rec;
  rec.txn_id = s.txn_id;
  rec.op = LogOp::kBegin;
  wal_.Append(std::move(rec));
}

void Database::CommitTxn(Session& s) {
  LogRecord rec;
  rec.txn_id = s.txn_id;
  rec.op = LogOp::kCommit;
  s.txn_log_bytes += rec.ByteSize();
  wal_.Append(std::move(rec));
  // Read-only transactions have nothing to make durable — no flush.
  if (!s.undo.empty()) {
    io_model_.AccountLogFlush(s.txn_log_bytes);
    wal_.AccountBytes(s.txn_log_bytes);
    obs::Count(obs::Metrics::Get().wal_fsyncs);
    obs::Count(obs::Metrics::Get().wal_fsync_bytes, s.txn_log_bytes);
  }
  s.in_txn = false;
  s.undo.clear();
  stmt_journal_.Seal(s.txn_id);
  stats_.commits.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Metrics::Get().txn_commits);
}

namespace {

// Locates a row by exact byte equality, preferring `page_hint`.
// Returns {-1,-1} when absent.
RowLoc FindRowByBytes(const HeapTable& table, int32_t page_hint,
                      std::string_view bytes) {
  auto search_page = [&](int p) -> int {
    const Page* page = table.GetPage(p);
    if (page == nullptr) return -1;
    for (int s = 0; s < page->slot_count(); ++s) {
      if (page->SlotLive(s) && page->RowAt(s) == bytes) return s;
    }
    return -1;
  };
  if (page_hint >= 0) {
    int slot = search_page(page_hint);
    if (slot >= 0) return RowLoc{page_hint, slot};
  }
  for (int p = 0; p < table.page_count(); ++p) {
    if (p == page_hint) continue;
    int slot = search_page(p);
    if (slot >= 0) return RowLoc{p, slot};
  }
  return RowLoc{-1, -1};
}

}  // namespace

Status Database::RollbackTxn(Session& s) {
  // Physically revert this transaction's changes, newest first. Rows are
  // relocated by byte equality (they only move within their page, and only
  // on DELETE compaction).
  for (auto it = s.undo.rbegin(); it != s.undo.rend(); ++it) {
    HeapTable* table = catalog_.FindById(it->table_id);
    if (table == nullptr) {
      return Status::Internal("rollback: table vanished");
    }
    // Each physical undo step writes a compensation record (CLR) so that
    // replaying the full WAL at recovery reproduces the page layout exactly.
    LogRecord clr;
    clr.txn_id = s.txn_id;
    clr.table_id = it->table_id;
    clr.len = table->schema().row_size();
    clr.is_clr = true;
    switch (it->op) {
      case LogOp::kInsert: {
        RowLoc loc = FindRowByBytes(*table, it->page_hint, it->after);
        if (loc.page < 0) return Status::Internal("rollback: inserted row missing");
        clr.op = LogOp::kDelete;
        clr.page = loc.page;
        clr.offset = table->OffsetOf(loc);
        clr.before_image = it->after;
        table->DeleteAt(loc);
        break;
      }
      case LogOp::kDelete: {
        RowLoc loc = table->Insert(it->before);
        clr.op = LogOp::kInsert;
        clr.page = loc.page;
        clr.offset = table->OffsetOf(loc);
        clr.after_image = it->before;
        break;
      }
      case LogOp::kUpdate: {
        RowLoc loc = FindRowByBytes(*table, it->page_hint, it->after);
        if (loc.page < 0) return Status::Internal("rollback: updated row missing");
        clr.op = LogOp::kUpdate;
        clr.page = loc.page;
        clr.offset = table->OffsetOf(loc);
        clr.before_image = it->after;
        clr.after_image = it->before;
        table->UpdateAt(loc, it->before);
        break;
      }
      default:
        return Status::Internal("rollback: bad undo op");
    }
    wal_.Append(std::move(clr));
  }
  LogRecord rec;
  rec.txn_id = s.txn_id;
  rec.op = LogOp::kAbort;
  wal_.Append(std::move(rec));
  s.in_txn = false;
  s.undo.clear();
  stmt_journal_.Discard(s.txn_id);
  stats_.rollbacks.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Metrics::Get().txn_aborts);
  return Status::Ok();
}

Status Database::RollbackTxnConcurrent(Session& s) {
  // The transaction's 2PL locks still cover every row it wrote; latches
  // make the physical page edits safe against readers of those tables.
  std::shared_lock<std::shared_mutex> cat(catalog_latch_);
  std::vector<int32_t> ids;
  ids.reserve(s.undo.size());
  for (const UndoEntry& ue : s.undo) ids.push_back(ue.table_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<std::unique_lock<std::shared_mutex>> latches;
  latches.reserve(ids.size());
  for (int32_t id : ids) {
    HeapTable* t = catalog_.FindById(id);
    if (t != nullptr) latches.emplace_back(t->latch());
  }
  return RollbackTxn(s);
}

void Database::LogRowOp(Session& s, LogOp op, int32_t table_id,
                        const HeapTable& table, RowLoc loc, std::string before,
                        std::string after) {
  LogRecord rec;
  rec.txn_id = s.txn_id;
  rec.op = op;
  rec.table_id = table_id;
  rec.page = loc.page;
  rec.offset = table.OffsetOf(loc);
  rec.len = table.schema().row_size();

  UndoEntry undo;
  undo.op = op;
  undo.table_id = table_id;
  undo.page_hint = loc.page;
  undo.before = before;
  undo.after = after;
  s.undo.push_back(std::move(undo));

  if (op == LogOp::kUpdate && traits_.diff_update_log) {
    // Sybase MODIFY: log only the changed column slots.
    const Schema& schema = table.schema();
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      const size_t off = static_cast<size_t>(schema.ColumnOffset(i));
      const size_t sz = static_cast<size_t>(schema.column(i).EncodedSize());
      std::string_view b = std::string_view(before).substr(off, sz);
      std::string_view a = std::string_view(after).substr(off, sz);
      if (b != a) {
        rec.diff.push_back(ColumnDiff{static_cast<int32_t>(i),
                                      std::string(b), std::string(a)});
      }
    }
  } else {
    if (op != LogOp::kInsert) rec.before_image = std::move(before);
    if (op != LogOp::kDelete) rec.after_image = std::move(after);
  }
  s.txn_log_bytes += rec.ByteSize();
  wal_.Append(std::move(rec));
}

// --------------------------------------------------------------------- DDL

Result<ResultSet> Database::ExecCreateTable(const sql::Statement& stmt) {
  std::vector<Column> cols;
  cols.reserve(stmt.columns.size());
  for (const sql::ColumnDef& def : stmt.columns) {
    if (traits_.has_rowid && EqualsIgnoreCase(def.name, traits_.rowid_name)) {
      return Status::InvalidArgument("column name " + def.name +
                                     " collides with the rowid pseudo-column");
    }
    for (const Column& existing : cols) {
      if (EqualsIgnoreCase(existing.name, def.name)) {
        return Status::InvalidArgument("duplicate column " + def.name);
      }
    }
    Column c;
    c.name = def.name;
    switch (def.type) {
      case sql::ColumnTypeKind::kInt: c.type = ValueType::kInt; break;
      case sql::ColumnTypeKind::kDouble: c.type = ValueType::kDouble; break;
      case sql::ColumnTypeKind::kVarchar:
      case sql::ColumnTypeKind::kChar:
        c.type = ValueType::kString;
        c.length = def.length;
        break;
    }
    c.not_null = def.not_null;
    c.identity = def.identity;
    if (c.identity && c.type != ValueType::kInt) {
      return Status::InvalidArgument("IDENTITY column must be INTEGER");
    }
    cols.push_back(std::move(c));
  }
  if (cols.empty()) return Status::InvalidArgument("table needs columns");
  Schema schema(std::move(cols), traits_.has_rowid);

  // PRIMARY KEY installs an equality-prefix index (uniqueness itself is not
  // enforced — the framework's workloads are key-disciplined, and neither
  // were the paper's TPC-C kits relying on engine-side checks).
  std::vector<int> key_columns;
  for (const std::string& pk : stmt.primary_key) {
    int idx = schema.FindColumn(pk);
    if (idx < 0) {
      return Status::InvalidArgument("PRIMARY KEY column " + pk + " undefined");
    }
    key_columns.push_back(idx);
  }

  auto created = catalog_.CreateTable(stmt.table, std::move(schema));
  if (!created.ok()) return created.status();
  if (!key_columns.empty()) (*created)->SetPrimaryIndex(std::move(key_columns));

  LogRecord rec;
  rec.op = LogOp::kDdl;
  rec.ddl_text = sql::PrintStatement(stmt);
  wal_.Append(std::move(rec));
  return ResultSet{};
}

Result<ResultSet> Database::ExecDropTable(const sql::Statement& stmt) {
  IRDB_RETURN_IF_ERROR(catalog_.DropTable(stmt.table));
  LogRecord rec;
  rec.op = LogOp::kDdl;
  rec.ddl_text = sql::PrintStatement(stmt);
  wal_.Append(std::move(rec));
  return ResultSet{};
}

Result<ResultSet> Database::ExecCreateIndex(const sql::Statement& stmt) {
  IRDB_ASSIGN_OR_RETURN(HeapTable* table, RequireTable(stmt.table));
  std::vector<int> key_columns;
  key_columns.reserve(stmt.index_columns.size());
  for (const std::string& col : stmt.index_columns) {
    int idx = table->schema().FindColumn(col);
    if (idx < 0) {
      return Status::InvalidArgument("CREATE INDEX: no column " + col + " in " +
                                     stmt.table);
    }
    key_columns.push_back(idx);
  }
  if (key_columns.empty()) {
    return Status::InvalidArgument("CREATE INDEX needs at least one column");
  }
  if (catalog_.FindTableOfIndex(stmt.index_name) != nullptr) {
    return Status::AlreadyExists("index " + stmt.index_name + " already exists");
  }
  IRDB_RETURN_IF_ERROR(
      table->AddSecondaryIndex(stmt.index_name, std::move(key_columns)));
  LogRecord rec;
  rec.op = LogOp::kDdl;
  rec.ddl_text = sql::PrintStatement(stmt);
  wal_.Append(std::move(rec));
  return ResultSet{};
}

Result<ResultSet> Database::ExecDropIndex(const sql::Statement& stmt) {
  HeapTable* table = catalog_.FindTableOfIndex(stmt.index_name);
  if (table == nullptr) {
    return Status::NotFound("no index named " + stmt.index_name);
  }
  IRDB_CHECK(table->DropSecondaryIndex(stmt.index_name));
  LogRecord rec;
  rec.op = LogOp::kDdl;
  rec.ddl_text = sql::PrintStatement(stmt);
  wal_.Append(std::move(rec));
  return ResultSet{};
}

// --------------------------------------------------------------------- DML

Result<ResultSet> Database::ExecInsert(Session& s, const sql::Statement& stmt) {
  IRDB_ASSIGN_OR_RETURN(HeapTable* table, RequireTable(stmt.table));
  IRDB_ASSIGN_OR_RETURN(int32_t table_id, catalog_.TableId(stmt.table));
  const Schema& schema = table->schema();
  const size_t ncols = schema.num_columns();

  // Map provided values to column indices.
  std::vector<int> target_cols;
  if (stmt.insert_columns.empty()) {
    for (size_t i = 0; i < ncols; ++i) target_cols.push_back(static_cast<int>(i));
  } else {
    for (const std::string& name : stmt.insert_columns) {
      int idx = schema.FindColumn(name);
      if (idx < 0) {
        return Status::InvalidArgument("INSERT: no column " + name + " in " +
                                       stmt.table);
      }
      target_cols.push_back(idx);
    }
  }

  ResultSet rs;
  const RowBinding empty_binding;  // VALUES read no columns
  for (const auto& value_exprs : stmt.insert_rows) {
    if (value_exprs.size() != target_cols.size()) {
      return Status::InvalidArgument(
          "INSERT: " + std::to_string(value_exprs.size()) + " values for " +
          std::to_string(target_cols.size()) + " columns");
    }
    Row row;
    row.values.assign(ncols, Value::Null());
    for (size_t i = 0; i < value_exprs.size(); ++i) {
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*value_exprs[i], empty_binding));
      row.values[static_cast<size_t>(target_cols[i])] = std::move(v);
    }
    // IDENTITY auto-assignment (explicit non-NULL values are honoured, which
    // is how the repair engine restores deleted Sybase rows with their
    // original identity — the equivalent of SET IDENTITY_INSERT ON).
    for (size_t i = 0; i < ncols; ++i) {
      if (schema.column(i).identity && row.values[i].is_null()) {
        row.values[i] = Value::Int(table->NextIdentity());
      }
      if (schema.column(i).identity) rs.last_identity = row.values[i].as_int();
    }
    for (size_t i = 0; i < ncols; ++i) {
      IRDB_ASSIGN_OR_RETURN(row.values[i], schema.CoerceForColumn(i, row.values[i]));
    }
    if (schema.has_hidden_rowid()) {
      row.rowid = table->NextRowId();
      rs.last_rowid = row.rowid;
    }
    IRDB_ASSIGN_OR_RETURN(std::string bytes, table->codec().Encode(row));
    RowLoc loc = table->Insert(bytes);
    io_model_.TouchPageWrite(table_id, loc.page);
    LogRowOp(s, LogOp::kInsert, table_id, *table, loc, "", std::move(bytes));
    ++rs.affected;
  }
  return rs;
}

Result<ResultSet> Database::ExecUpdate(Session& s, const sql::Statement& stmt) {
  IRDB_ASSIGN_OR_RETURN(HeapTable* table, RequireTable(stmt.table));
  IRDB_ASSIGN_OR_RETURN(int32_t table_id, catalog_.TableId(stmt.table));
  const Schema& schema = table->schema();
  const RowCodec& codec = table->codec();

  // Resolve assignment targets once.
  std::vector<int> assign_cols;
  for (const auto& [name, expr] : stmt.assignments) {
    (void)expr;
    if (traits_.has_rowid && EqualsIgnoreCase(name, traits_.rowid_name)) {
      return Status::InvalidArgument("cannot assign to rowid");
    }
    int idx = schema.FindColumn(name);
    if (idx < 0) {
      return Status::InvalidArgument("UPDATE: no column " + name + " in " +
                                     stmt.table);
    }
    assign_cols.push_back(idx);
  }

  // Resolve the WHERE and assignment column references once.
  const NameScope scope{{&schema, stmt.table}};
  ColumnBindings columns;
  if (stmt.where) {
    IRDB_RETURN_IF_ERROR(columns.Bind(*stmt.where, scope, traits_));
  }
  for (const auto& [name, expr] : stmt.assignments) {
    (void)name;
    IRDB_RETURN_IF_ERROR(columns.Bind(*expr, scope, traits_));
  }

  // Phase 1: collect matching rows (updates do not move rows, so locations
  // collected here stay valid through phase 2).
  IRDB_ASSIGN_OR_RETURN(auto matches,
                        CollectMatching(table, table_id, stmt.table,
                                        stmt.where.get(), columns));

  // Phase 2: evaluate assignments against the OLD row, patch, write, log.
  LazyRow lazy(&codec);
  RowBinding binding;
  binding.columns = &columns;
  binding.tables.push_back(TableBinding{&lazy, nullptr});
  for (auto& [loc, old_bytes] : matches) {
    lazy.Reset(old_bytes);
    std::vector<Value> new_values;
    new_values.reserve(stmt.assignments.size());
    for (const auto& [name, expr] : stmt.assignments) {
      (void)name;
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*expr, binding));
      new_values.push_back(std::move(v));
    }
    std::string new_bytes = old_bytes;
    for (size_t i = 0; i < assign_cols.size(); ++i) {
      const size_t col = static_cast<size_t>(assign_cols[i]);
      IRDB_ASSIGN_OR_RETURN(Value v, schema.CoerceForColumn(col, new_values[i]));
      IRDB_RETURN_IF_ERROR(codec.EncodeColumnInPlace(&new_bytes, col, v));
    }
    if (new_bytes == old_bytes) {
      // No-op update: still counts as affected, but nothing to log.
      continue;
    }
    table->UpdateAt(loc, new_bytes);
    LogRowOp(s, LogOp::kUpdate, table_id, *table, loc, std::move(old_bytes),
             std::move(new_bytes));
  }
  ResultSet rs;
  rs.affected = static_cast<int64_t>(matches.size());
  return rs;
}

Result<ResultSet> Database::ExecDelete(Session& s, const sql::Statement& stmt) {
  IRDB_ASSIGN_OR_RETURN(HeapTable* table, RequireTable(stmt.table));
  IRDB_ASSIGN_OR_RETURN(int32_t table_id, catalog_.TableId(stmt.table));

  ColumnBindings columns;
  if (stmt.where) {
    const NameScope scope{{&table->schema(), stmt.table}};
    IRDB_RETURN_IF_ERROR(columns.Bind(*stmt.where, scope, traits_));
  }

  IRDB_ASSIGN_OR_RETURN(auto matches,
                        CollectMatching(table, table_id, stmt.table,
                                        stmt.where.get(), columns));

  // Deletes tombstone slots in place, so pending locations stay valid in
  // any order.
  for (auto& [loc, bytes] : matches) {
    // Log with the offset as of this operation.
    LogRowOp(s, LogOp::kDelete, table_id, *table, loc, std::move(bytes), "");
    table->DeleteAt(loc);
  }
  ResultSet rs;
  rs.affected = static_cast<int64_t>(matches.size());
  return rs;
}

// --------------------------------------------------------------- state hash

uint64_t Database::StateHash(const std::vector<std::string>& tables,
                             const std::vector<std::string>& exclude_columns) const {
  uint64_t h = 1469598103934665603ull;
  std::vector<std::string> names = tables;
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const HeapTable* table = catalog_.Find(name);
    if (table == nullptr) continue;
    const Schema& schema = table->schema();
    std::vector<bool> keep(schema.num_columns(), true);
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      for (const std::string& ex : exclude_columns) {
        if (EqualsIgnoreCase(schema.column(i).name, ex)) keep[i] = false;
      }
    }
    std::vector<std::string> rows;
    table->Scan([&](RowLoc, std::string_view bytes) {
      std::string repr;
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        if (!keep[i]) continue;
        auto v = table->codec().DecodeColumn(bytes, i);
        IRDB_CHECK(v.ok());
        v->AppendTo(&repr);
      }
      rows.push_back(std::move(repr));
    });
    std::sort(rows.begin(), rows.end());
    h = Fnv1a(name, h);
    for (const std::string& r : rows) h = Fnv1a(r, h);
  }
  return h;
}

void Database::SetSessionQuarantineExempt(int64_t session_id, bool exempt) {
  std::shared_ptr<Session> sp = FindSession(session_id);
  if (sp == nullptr) return;
  std::lock_guard<std::mutex> lock(sp->mu);
  sp->quarantine_exempt = exempt;
}

int Database::EvictQuarantinePinnedTxns() {
  std::vector<std::shared_ptr<Session>> snapshot;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    snapshot.reserve(sessions_.size());
    for (auto& [id, sp] : sessions_) snapshot.push_back(sp);
  }
  int evicted = 0;
  for (auto& sp : snapshot) {
    // try_lock, not lock: a session blocked in a lock wait holds its mu,
    // and waiting for it here could chain back to a transaction only THIS
    // eviction pass can release. Busy sessions either finish and hit the
    // gate on their next statement, or get caught by a later pass.
    std::unique_lock<std::mutex> session_lock(sp->mu, std::try_to_lock);
    if (!session_lock.owns_lock()) continue;
    if (!sp->in_txn || sp->quarantine_exempt) continue;
    if (!quarantine_.HoldsOverlapping(txn_mgr_.locks(), sp->txn_id)) continue;
    (void)RollbackTxnConcurrent(*sp);
    txn_mgr_.Abort(sp->txn_id);
    sp->poisoned = true;
    sp->quarantine_poisoned = true;
    ++evicted;
  }
  return evicted;
}

std::optional<std::vector<concurrency::ResourceId>> Database::KeyLockPath(
    const std::string& table,
    const std::vector<std::pair<std::string, Value>>& row_values) const {
  std::shared_lock<std::shared_mutex> cat(catalog_latch_);
  const HeapTable* t = catalog_.Find(table);
  auto id = catalog_.TableId(table);
  if (t == nullptr || !id.ok() || t->index() == nullptr) return std::nullopt;
  const Schema& schema = t->schema();
  const std::vector<int>& key_columns = t->index()->key_columns();
  std::vector<concurrency::ResourceId> path{
      concurrency::ResourceId::Table(*id)};
  StreamKeyHashes(
      schema, key_columns,
      [&](size_t i) -> std::optional<Value> {
        const std::string& key_name =
            schema.column(static_cast<size_t>(key_columns[i])).name;
        for (const auto& [name, v] : row_values) {
          if (EqualsIgnoreCase(name, key_name)) return v;
        }
        return std::nullopt;
      },
      [&](size_t depth, uint64_t hash) {
        path.push_back(GranuleAt(*id, depth, key_columns.size(), hash));
      });
  if (path.size() != key_columns.size() + 1) return std::nullopt;
  return path;
}

std::optional<std::pair<int32_t, std::vector<std::string>>>
Database::TableKeyInfo(const std::string& table) const {
  std::shared_lock<std::shared_mutex> cat(catalog_latch_);
  const HeapTable* t = catalog_.Find(table);
  if (t == nullptr) return std::nullopt;
  auto id = catalog_.TableId(table);
  if (!id.ok()) return std::nullopt;
  std::vector<std::string> names;
  if (t->index() != nullptr) {
    for (int kc : t->index()->key_columns()) {
      names.push_back(t->schema().column(static_cast<size_t>(kc)).name);
    }
  }
  return std::make_pair(*id, std::move(names));
}

std::vector<std::pair<int64_t, std::vector<std::pair<std::string, Value>>>>
Database::KeyValuesForRowAddresses(const std::string& table,
                                   const std::vector<int64_t>& addresses,
                                   const std::string& address_column) const {
  std::vector<std::pair<int64_t, std::vector<std::pair<std::string, Value>>>>
      out;
  std::shared_lock<std::shared_mutex> cat(catalog_latch_);
  const HeapTable* t = catalog_.Find(table);
  if (t == nullptr || t->index() == nullptr) return out;
  const Schema& schema = t->schema();
  int addr_col = -1;
  if (!schema.has_hidden_rowid()) {
    addr_col = schema.FindColumn(address_column);
    if (addr_col < 0) return out;
  }
  std::unordered_set<int64_t> wanted(addresses.begin(), addresses.end());
  std::shared_lock<std::shared_mutex> latch(t->latch());

  // Extracts the primary-key (name, value) pairs of one row; false when a
  // column fails to decode.
  auto key_of = [&](std::string_view bytes,
                    std::vector<std::pair<std::string, Value>>* key) -> bool {
    for (int kc : t->index()->key_columns()) {
      auto v = t->codec().DecodeColumn(bytes, static_cast<size_t>(kc));
      if (!v.ok()) return false;
      key->emplace_back(schema.column(static_cast<size_t>(kc)).name,
                        std::move(*v));
    }
    return true;
  };

  // When the address column leads an index, probe each address directly
  // instead of scanning the heap (the repair engine calls this with a few
  // addresses against large tables).
  if (!schema.has_hidden_rowid()) {
    const TableIndex* probe = nullptr;
    if (t->index()->key_columns()[0] == addr_col) probe = t->index();
    for (const auto& si : t->secondary_indexes()) {
      if (probe != nullptr) break;
      if (si->key_columns()[0] == addr_col) probe = si.get();
    }
    if (probe != nullptr) {
      obs::Count(obs::Metrics::Get().index_scans);
      PagePins pins;
      std::string prefix;
      for (int64_t addr : wanted) {
        auto coerced = schema.CoerceForColumn(static_cast<size_t>(addr_col),
                                              Value::Int(addr));
        if (!coerced.ok()) continue;
        prefix.clear();
        AppendEncodedKeyValue(*coerced, &prefix);
        for (auto r = probe->Scan(prefix, prefix); r.Valid(); r.Next()) {
          std::vector<std::pair<std::string, Value>> key;
          if (key_of(t->ReadAt(r.loc(), &pins), &key)) {
            out.emplace_back(addr, std::move(key));
          }
        }
      }
      return out;
    }
  }

  obs::Count(obs::Metrics::Get().heap_scans);
  t->Scan([&](RowLoc, std::string_view bytes) {
    int64_t addr;
    if (schema.has_hidden_rowid()) {
      addr = t->codec().DecodeRowId(bytes);
    } else {
      auto v = t->codec().DecodeColumn(bytes, static_cast<size_t>(addr_col));
      if (!v.ok() || !v->is_int()) return;
      addr = v->as_int();
    }
    if (wanted.count(addr) == 0) return;
    // Decoded values are already canonical for their columns, so they hash
    // into the same space as PlanStatementLocks' key hashes.
    std::vector<std::pair<std::string, Value>> key;
    if (key_of(bytes, &key)) out.emplace_back(addr, std::move(key));
  });
  return out;
}

}  // namespace irdb
