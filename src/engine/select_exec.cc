// SELECT execution: join scan with single-table predicate pushdown,
// projection, aggregation with GROUP BY, ORDER BY and LIMIT.
#include <algorithm>
#include <map>
#include <set>

#include "engine/database.h"
#include "obs/catalog.h"
#include "util/string_utils.h"

namespace irdb {

namespace {

using sql::Expr;
using sql::ExprKind;

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bin_op == sql::BinaryOp::kAnd) {
    SplitConjuncts(e->lhs.get(), out);
    SplitConjuncts(e->rhs.get(), out);
    return;
  }
  out->push_back(e);
}

void CollectAggregates(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFuncCall) {
    out->push_back(&e);
    return;  // no nested aggregates
  }
  if (e.lhs) CollectAggregates(*e.lhs, out);
  if (e.rhs) CollectAggregates(*e.rhs, out);
  if (e.low) CollectAggregates(*e.low, out);
  if (e.high) CollectAggregates(*e.high, out);
  for (const auto& item : e.list) CollectAggregates(*item, out);
}

// FROM slot of the single table a conjunct reads, or -1 when it reads
// several (or none — constants evaluate at the join level, cheaply).
int ConjunctTable(const Expr& conjunct, const ColumnBindings& columns) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(conjunct, &refs);
  int which = -1;
  for (const Expr* ref : refs) {
    const int slot = columns.Find(*ref)->slot;
    if (which >= 0 && which != slot) return -1;
    which = slot;
  }
  return which;
}

struct SortableRow {
  std::vector<Value> out;
  std::vector<Value> keys;
};

void SortAndLimit(std::vector<SortableRow>* rows,
                  const std::vector<sql::OrderItem>& order_by,
                  const std::optional<int64_t>& limit,
                  std::vector<std::vector<Value>>* out) {
  if (!order_by.empty()) {
    std::stable_sort(rows->begin(), rows->end(),
                     [&](const SortableRow& a, const SortableRow& b) {
                       for (size_t i = 0; i < order_by.size(); ++i) {
                         int c = a.keys[i].Compare(b.keys[i]);
                         if (c != 0) return order_by[i].desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  size_t n = rows->size();
  if (limit && static_cast<size_t>(*limit) < n) n = static_cast<size_t>(*limit);
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) out->push_back(std::move((*rows)[i].out));
}

// Aggregate accumulator for one (group, aggregate-call) pair.
struct AggAccum {
  int64_t count = 0;       // non-null inputs (or all rows for COUNT(*))
  bool any = false;
  bool is_double = false;
  int64_t isum = 0;
  double dsum = 0;
  Value min, max;
  std::set<Value> distinct;

  void Add(const Value& v, bool use_distinct) {
    if (use_distinct) {
      distinct.insert(v);
      return;
    }
    AddRaw(v);
  }

  void AddRaw(const Value& v) {
    ++count;
    if (v.is_numeric()) {
      if (v.is_double()) is_double = true;
      if (v.is_int() && !is_double) {
        isum += v.as_int();
      } else {
        dsum = (is_double && !any ? 0 : dsum);  // keep dsum coherent
        dsum += v.as_double();
      }
    }
    if (!any || v.Compare(min) < 0) min = v;
    if (!any || v.Compare(max) > 0) max = v;
    any = true;
  }

  Value Finalize(const std::string& func, bool use_distinct) {
    if (use_distinct) {
      AggAccum flat;
      for (const Value& v : distinct) flat.AddRaw(v);
      return flat.Finalize(func, false);
    }
    if (func == "COUNT") return Value::Int(count);
    if (!any) return Value::Null();
    double total = is_double ? dsum + static_cast<double>(isum)
                             : static_cast<double>(isum);
    if (func == "SUM") {
      return is_double ? Value::Double(total) : Value::Int(isum);
    }
    if (func == "AVG") return Value::Double(total / static_cast<double>(count));
    if (func == "MIN") return min;
    if (func == "MAX") return max;
    return Value::Null();
  }
};

}  // namespace

namespace {

NameScope ScopeOf(
    const std::vector<std::pair<HeapTable*, std::string>>& tables) {
  NameScope scope;
  scope.reserve(tables.size());
  for (const auto& [table, name] : tables) {
    scope.emplace_back(&table->schema(), name);
  }
  return scope;
}

// FROM slots referenced by `e`, as a bitmask over up to 64 FROM tables;
// returns nullopt when some reference does not resolve.
std::optional<uint64_t> ReferencedTables(const Expr& e, const NameScope& scope,
                                         const FlavorTraits& traits) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  uint64_t mask = 0;
  for (const Expr* ref : refs) {
    auto bound = ResolveColumnRef(*ref, scope, traits);
    if (!bound.ok()) return std::nullopt;
    mask |= uint64_t{1} << bound->slot;
  }
  return mask;
}

// A conjunct of the form <column of table d> = <expr over tables < d>,
// usable as an index bound when joining table d.
struct EqBinding {
  int column = -1;            // column index within table d's schema
  const Expr* value = nullptr;
};

// Range bounds on a column of table d collected from <, <=, >, >=, BETWEEN
// conjuncts whose value side only reads earlier tables. Strictness is not
// recorded: index bounds are inclusive over-approximations and the original
// conjunct still runs as a residual filter.
struct RangeBinding {
  int column = -1;
  const Expr* lo = nullptr;
  const Expr* hi = nullptr;
};

// Per-depth access path: an index with an equality prefix (and optionally
// range bounds on the key column right after the prefix), or a full heap
// scan when `index` is null. Choosing an index is a pure access-path
// decision — every WHERE conjunct is still evaluated against each row.
struct AccessPath {
  const TableIndex* index = nullptr;
  std::vector<const Expr*> prefix_exprs;
  const Expr* lo = nullptr;  // bounds on key column prefix_exprs.size()
  const Expr* hi = nullptr;
};

std::vector<AccessPath> PlanAccessPaths(
    const std::vector<const Expr*>& conjuncts,
    const std::vector<std::pair<HeapTable*, std::string>>& tables,
    const FlavorTraits& traits) {
  const size_t n = tables.size();
  const NameScope scope = ScopeOf(tables);

  // Resolves a (column expr, value expr) pair to (depth, column index) when
  // the column belongs to exactly one table and every table the value
  // expression touches is bound earlier in join order.
  auto bind_side = [&](const Expr* col_side, const Expr* val_side, int* d_out,
                       int* col_out) -> bool {
    if (col_side == nullptr || val_side == nullptr) return false;
    if (col_side->kind != ExprKind::kColumnRef) return false;
    auto col = ResolveColumnRef(*col_side, scope, traits);
    auto val_mask = ReferencedTables(*val_side, scope, traits);
    if (!col.ok() || !val_mask) return false;
    if ((*val_mask >> col->slot) != 0) return false;
    if (col->column == BoundColumn::kRowId) return false;  // not indexed
    *d_out = col->slot;
    *col_out = col->column;
    return true;
  };

  std::vector<std::vector<EqBinding>> eq(n);
  std::vector<std::vector<RangeBinding>> ranges(n);
  auto add_range = [&](int d, int col, const Expr* lo, const Expr* hi) {
    for (RangeBinding& rb : ranges[static_cast<size_t>(d)]) {
      if (rb.column != col) continue;
      if (lo != nullptr && rb.lo == nullptr) rb.lo = lo;
      if (hi != nullptr && rb.hi == nullptr) rb.hi = hi;
      return;
    }
    ranges[static_cast<size_t>(d)].push_back(RangeBinding{col, lo, hi});
  };

  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBetween) {
      int d1, col1, d2, col2;
      if (bind_side(c->lhs.get(), c->low.get(), &d1, &col1) &&
          bind_side(c->lhs.get(), c->high.get(), &d2, &col2)) {
        add_range(d1, col1, c->low.get(), c->high.get());
      }
      continue;
    }
    if (c->kind != ExprKind::kBinary) continue;
    const sql::BinaryOp op = c->bin_op;
    const bool is_eq = op == sql::BinaryOp::kEq;
    const bool is_cmp = op == sql::BinaryOp::kLt || op == sql::BinaryOp::kLe ||
                        op == sql::BinaryOp::kGt || op == sql::BinaryOp::kGe;
    if (!is_eq && !is_cmp) continue;
    for (int side = 0; side < 2; ++side) {
      const Expr* col_side = side == 0 ? c->lhs.get() : c->rhs.get();
      const Expr* val_side = side == 0 ? c->rhs.get() : c->lhs.get();
      int d, col;
      if (!bind_side(col_side, val_side, &d, &col)) continue;
      if (is_eq) {
        eq[static_cast<size_t>(d)].push_back(EqBinding{col, val_side});
        continue;
      }
      // col < v / col <= v bound from above; flipped sides bound from below.
      const bool upper = (op == sql::BinaryOp::kLt ||
                          op == sql::BinaryOp::kLe) == (side == 0);
      add_range(d, col, upper ? nullptr : val_side, upper ? val_side : nullptr);
    }
  }

  // Pick the best index per depth: longest equality prefix wins; a usable
  // range bound breaks prefix-length ties; the primary index (listed first)
  // wins remaining ties.
  std::vector<AccessPath> paths(n);
  for (size_t d = 0; d < n; ++d) {
    HeapTable* t = tables[d].first;
    std::vector<const TableIndex*> candidates;
    if (t->index() != nullptr) candidates.push_back(t->index());
    for (const auto& si : t->secondary_indexes()) candidates.push_back(si.get());
    AccessPath best;
    for (const TableIndex* index : candidates) {
      AccessPath cand;
      cand.index = index;
      for (int key_col : index->key_columns()) {
        const Expr* bound = nullptr;
        for (const EqBinding& b : eq[d]) {
          if (b.column == key_col) {
            bound = b.value;
            break;
          }
        }
        if (bound == nullptr) break;  // prefix ends
        cand.prefix_exprs.push_back(bound);
      }
      if (cand.prefix_exprs.size() < index->key_columns().size()) {
        const int next_col = index->key_columns()[cand.prefix_exprs.size()];
        for (const RangeBinding& rb : ranges[d]) {
          if (rb.column == next_col) {
            cand.lo = rb.lo;
            cand.hi = rb.hi;
            break;
          }
        }
      }
      const bool has_range = cand.lo != nullptr || cand.hi != nullptr;
      if (cand.prefix_exprs.empty() && !has_range) continue;
      const bool best_range = best.lo != nullptr || best.hi != nullptr;
      if (best.index == nullptr ||
          cand.prefix_exprs.size() > best.prefix_exprs.size() ||
          (cand.prefix_exprs.size() == best.prefix_exprs.size() && has_range &&
           !best_range)) {
        best = std::move(cand);
      }
    }
    paths[d] = std::move(best);
  }
  return paths;
}

// Outcome of evaluating an access path's bound expressions at runtime.
enum class IndexProbe {
  kScan,      // the bounds are encoded: scan the index
  kNoRows,    // an equality value was NULL: nothing can match
  kFallback,  // a value failed to coerce to the key column's type — byte
              // order would disagree with SQL comparison; scan the heap
};

// Encoded bounds of one index probe. A statement owns one pair per FROM
// depth and reuses it for every outer row, so once the buffers have grown a
// probe allocates nothing.
struct ProbeKeys {
  std::string lower, upper;
};

// Encodes the path's coerced equality prefix into both bounds, then its
// range bounds (if any) after them.
Result<IndexProbe> ProbeIndex(const AccessPath& path, const Schema& schema,
                              const RowBinding& binding, ProbeKeys* keys) {
  const std::vector<int>& key_cols = path.index->key_columns();
  const size_t depth = path.prefix_exprs.size();
  keys->lower.clear();
  for (size_t i = 0; i < depth; ++i) {
    IRDB_ASSIGN_OR_RETURN(Value v, Eval(*path.prefix_exprs[i], binding));
    if (v.is_null()) return IndexProbe::kNoRows;
    auto coerced =
        schema.CoerceForColumn(static_cast<size_t>(key_cols[i]), v);
    if (!coerced.ok()) return IndexProbe::kFallback;
    AppendEncodedKeyValue(*coerced, &keys->lower);
  }
  keys->upper = keys->lower;
  // A NULL or uncoercible range bound degrades to unbounded on that side —
  // over-approximate, never wrong (the residual filter decides).
  bool bounded = depth > 0;
  const size_t range_col = depth < key_cols.size() ? depth : 0;
  auto bind_bound = [&](const Expr* e, std::string* out) -> Status {
    if (e == nullptr) return Status::Ok();
    IRDB_ASSIGN_OR_RETURN(Value v, Eval(*e, binding));
    if (v.is_null()) return Status::Ok();
    auto coerced = schema.CoerceForColumn(
        static_cast<size_t>(key_cols[range_col]), v);
    if (!coerced.ok()) return Status::Ok();
    AppendEncodedKeyValue(*coerced, out);
    bounded = true;
    return Status::Ok();
  };
  IRDB_RETURN_IF_ERROR(bind_bound(path.lo, &keys->lower));
  IRDB_RETURN_IF_ERROR(bind_bound(path.hi, &keys->upper));
  // Everything degraded: a heap scan is honest.
  return bounded ? IndexProbe::kScan : IndexProbe::kFallback;
}

// Visits, as (loc, bytes), every row of `table` that `path` may match: the
// index entries its bounds select, each read where it lies, or every live
// row when there is no path or it falls back. Counts the scan it takes and
// touches each page it reads. The range views the tree and `keys`, which
// no visit may change: a deeper join depth probes with its own keys, and
// DML collects its matches before it writes.
template <typename Visit>
Status ScanAccessPath(const AccessPath& path, const HeapTable& table,
                      int32_t table_id, const RowBinding& binding,
                      ProbeKeys* keys, PagePins* pins, IoModel& io,
                      const Visit& visit) {
  if (path.index != nullptr) {
    IRDB_ASSIGN_OR_RETURN(
        IndexProbe probe, ProbeIndex(path, table.schema(), binding, keys));
    if (probe == IndexProbe::kNoRows) return Status::Ok();
    if (probe == IndexProbe::kScan) {
      obs::Count(obs::Metrics::Get().index_scans);
      for (auto r = path.index->Scan(keys->lower, keys->upper); r.Valid();
           r.Next()) {
        const RowLoc loc = r.loc();
        io.TouchPage(table_id, loc.page);
        IRDB_RETURN_IF_ERROR(visit(loc, table.ReadAt(loc, pins)));
      }
      return Status::Ok();
    }
  }
  obs::Count(obs::Metrics::Get().heap_scans);
  for (int p = 0; p < table.page_count(); ++p) {
    io.TouchPage(table_id, p);
    const Page* page = table.GetPage(p, pins);
    for (int slot = 0; slot < page->slot_count(); ++slot) {
      if (!page->SlotLive(slot)) continue;
      IRDB_RETURN_IF_ERROR(visit(RowLoc{p, slot}, page->RowAt(slot)));
    }
  }
  return Status::Ok();
}

}  // namespace

Status Database::JoinScan(
    const sql::Statement& stmt,
    const std::vector<std::pair<HeapTable*, std::string>>& tables,
    const ColumnBindings& columns,
    const std::function<Status(const RowBinding&)>& fn) {
  IRDB_CHECK_MSG(tables.size() <= 64, "too many FROM tables");
  // Classify WHERE conjuncts: per-table filters run during that table's scan.
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), &conjuncts);
  std::vector<std::vector<const Expr*>> table_filters(tables.size());
  std::vector<const Expr*> join_filters;
  for (const Expr* c : conjuncts) {
    const int idx = ConjunctTable(*c, columns);
    if (idx >= 0) {
      table_filters[static_cast<size_t>(idx)].push_back(c);
    } else {
      join_filters.push_back(c);
    }
  }
  std::vector<AccessPath> paths = PlanAccessPaths(conjuncts, tables, traits_);

  // One binding serves every depth: a filter or index bound at depth d
  // reads only slots <= d, which are already positioned.
  const size_t n = tables.size();
  std::vector<LazyRow> rows;
  rows.reserve(n);
  RowBinding full;
  full.columns = &columns;
  for (size_t i = 0; i < n; ++i) {
    rows.emplace_back(&tables[i].first->codec());
    full.tables.push_back(TableBinding{&rows[i], nullptr});
  }

  std::vector<int32_t> table_ids(n);
  for (size_t i = 0; i < n; ++i) {
    IRDB_ASSIGN_OR_RETURN(table_ids[i], catalog_.TableId(tables[i].first->name()));
  }

  // Each page this statement reads is pinned once and held until it ends.
  PagePins pins;
  std::vector<ProbeKeys> probe_keys(n);
  std::function<Status(size_t)> recurse = [&](size_t depth) -> Status {
    if (depth == n) {
      for (const Expr* c : join_filters) {
        IRDB_ASSIGN_OR_RETURN(Value v, Eval(*c, full));
        IRDB_ASSIGN_OR_RETURN(bool ok, IsTruthy(v));
        if (!ok) return Status::Ok();
      }
      return fn(full);
    }
    auto visit = [&](RowLoc, std::string_view row_bytes) -> Status {
      io_model_.AccountRowsExamined(1);
      rows[depth].Reset(row_bytes);
      for (const Expr* c : table_filters[depth]) {
        IRDB_ASSIGN_OR_RETURN(Value v, Eval(*c, full));
        IRDB_ASSIGN_OR_RETURN(bool pass, IsTruthy(v));
        if (!pass) return Status::Ok();
      }
      return recurse(depth + 1);
    };
    // Index nested-loop: the path binds its key prefix and bounds from the
    // outer tuple.
    return ScanAccessPath(paths[depth], *tables[depth].first, table_ids[depth],
                          full, &probe_keys[depth], &pins, io_model_, visit);
  };
  return recurse(0);
}

Result<std::vector<std::pair<RowLoc, std::string>>> Database::CollectMatching(
    HeapTable* table, int32_t table_id, const std::string& effective_name,
    const sql::Expr* where, const ColumnBindings& columns) {
  std::vector<std::pair<HeapTable*, std::string>> tables{{table, effective_name}};

  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, &conjuncts);
  std::vector<AccessPath> paths = PlanAccessPaths(conjuncts, tables, traits_);

  std::vector<std::pair<RowLoc, std::string>> matches;
  LazyRow lazy(&table->codec());
  RowBinding binding;
  binding.columns = &columns;
  binding.tables.push_back(TableBinding{&lazy, nullptr});

  auto visit = [&](RowLoc loc, std::string_view bytes) -> Status {
    io_model_.AccountRowsExamined(1);
    lazy.Reset(bytes);
    bool match = true;
    if (where != nullptr) {
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*where, binding));
      IRDB_ASSIGN_OR_RETURN(match, IsTruthy(v));
    }
    if (match) matches.emplace_back(loc, std::string(bytes));
    return Status::Ok();
  };

  PagePins pins;
  ProbeKeys keys;
  IRDB_RETURN_IF_ERROR(ScanAccessPath(paths[0], *table, table_id, binding,
                                      &keys, &pins, io_model_, visit));
  return matches;
}

void Database::PlanSelectLocks(const sql::Statement& stmt,
                               std::vector<LockPlanEntry>* plan) {
  using concurrency::LockMode;
  using concurrency::ResourceId;
  // Resolve FROM tables; unresolvable names are the executor's problem.
  std::vector<std::pair<HeapTable*, std::string>> tables;
  std::vector<int32_t> ids;
  for (const sql::TableRef& ref : stmt.from) {
    HeapTable* t = catalog_.Find(ref.name);
    auto id = catalog_.TableId(ref.name);
    if (t == nullptr || !id.ok()) return;
    tables.emplace_back(t, ref.effective_name());
    ids.push_back(*id);
  }
  if (tables.empty()) return;

  // Mirror the access-path planner, per table: a primary-key path whose
  // equality prefix starts with literals reads only rows inside the granule
  // those literals pin — one key, or one key-prefix granule — so intention
  // locks above it and S on it suffice. Phantoms stay out: an INSERT under
  // that granule takes IX (or X) on it. Anything else (secondary-index
  // paths, scans, join columns in the leading key position) takes table S.
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), &conjuncts);
  std::vector<AccessPath> paths = PlanAccessPaths(conjuncts, tables, traits_);
  static const std::vector<const Expr*> kNoPrefix;
  for (size_t d = 0; d < tables.size(); ++d) {
    const TableIndex* pk = tables[d].first->index();
    if (pk == nullptr) {
      plan->push_back({ResourceId::Table(ids[d]), LockMode::kShared});
      continue;
    }
    PlanKeyPath(ids[d], tables[d].first->schema(), pk->key_columns(),
                paths[d].index == pk ? paths[d].prefix_exprs : kNoPrefix,
                LockMode::kIntentionShared, LockMode::kShared, plan);
  }
}

Result<ResultSet> Database::ExecSelect(Session& s, const sql::Statement& stmt) {
  (void)s;
  std::vector<std::pair<HeapTable*, std::string>> tables;
  for (const sql::TableRef& ref : stmt.from) {
    IRDB_ASSIGN_OR_RETURN(HeapTable* t, RequireTable(ref.name));
    for (const auto& [_, name] : tables) {
      if (EqualsIgnoreCase(name, ref.effective_name())) {
        return Status::InvalidArgument("duplicate table name " +
                                       ref.effective_name() + " in FROM");
      }
    }
    tables.emplace_back(t, ref.effective_name());
  }
  if (tables.empty()) return Status::InvalidArgument("SELECT without FROM");

  // Resolve every column reference once, before the scan (empty tables
  // still type-check).
  const NameScope scope = ScopeOf(tables);
  ColumnBindings columns;
  for (const sql::SelectItem& item : stmt.select_items) {
    if (item.star) continue;
    IRDB_RETURN_IF_ERROR(columns.Bind(*item.expr, scope, traits_));
  }
  if (stmt.where) {
    IRDB_RETURN_IF_ERROR(columns.Bind(*stmt.where, scope, traits_));
  }
  for (const auto& ge : stmt.group_by) {
    IRDB_RETURN_IF_ERROR(columns.Bind(*ge, scope, traits_));
  }
  for (const auto& oi : stmt.order_by) {
    IRDB_RETURN_IF_ERROR(columns.Bind(*oi.expr, scope, traits_));
  }

  bool aggregate = !stmt.group_by.empty();
  for (const sql::SelectItem& item : stmt.select_items) {
    if (!item.star && item.expr->ContainsAggregate()) aggregate = true;
  }
  if (aggregate) return ExecAggregateSelect(stmt, tables, columns);

  // Expand the projection list.
  struct OutCol {
    int table_idx = -1;  // >=0: direct column fetch
    int col_idx = -1;
    const Expr* expr = nullptr;
    std::string name;
  };
  std::vector<OutCol> out_cols;
  for (const sql::SelectItem& item : stmt.select_items) {
    if (item.star) {
      for (size_t t = 0; t < tables.size(); ++t) {
        if (!item.star_table.empty() &&
            !EqualsIgnoreCase(tables[t].second, item.star_table)) {
          continue;
        }
        const Schema& schema = tables[t].first->schema();
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          out_cols.push_back(OutCol{static_cast<int>(t), static_cast<int>(c),
                                    nullptr, schema.column(c).name});
        }
      }
    } else {
      OutCol oc;
      oc.expr = item.expr.get();
      if (!item.alias.empty()) {
        oc.name = item.alias;
      } else if (item.expr->kind == ExprKind::kColumnRef) {
        oc.name = item.expr->column;
      } else {
        oc.name = "expr";
      }
      out_cols.push_back(std::move(oc));
    }
  }

  std::vector<SortableRow> rows;
  IRDB_RETURN_IF_ERROR(JoinScan(stmt, tables, columns, [&](const RowBinding& binding) -> Status {
    SortableRow row;
    row.out.reserve(out_cols.size());
    for (const OutCol& oc : out_cols) {
      if (oc.expr != nullptr) {
        IRDB_ASSIGN_OR_RETURN(Value v, Eval(*oc.expr, binding));
        row.out.push_back(std::move(v));
      } else {
        IRDB_ASSIGN_OR_RETURN(
            Value v, binding.tables[static_cast<size_t>(oc.table_idx)].row->Get(
                         static_cast<size_t>(oc.col_idx)));
        row.out.push_back(std::move(v));
      }
    }
    row.keys.reserve(stmt.order_by.size());
    for (const sql::OrderItem& oi : stmt.order_by) {
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*oi.expr, binding));
      row.keys.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
    return Status::Ok();
  }));

  ResultSet rs;
  for (const OutCol& oc : out_cols) rs.columns.push_back(oc.name);
  SortAndLimit(&rows, stmt.order_by, stmt.limit, &rs.rows);
  return rs;
}

Result<ResultSet> Database::ExecAggregateSelect(
    const sql::Statement& stmt,
    const std::vector<std::pair<HeapTable*, std::string>>& tables,
    const ColumnBindings& columns) {
  // Gather the aggregate call sites.
  std::vector<const Expr*> agg_nodes;
  for (const sql::SelectItem& item : stmt.select_items) {
    if (item.star) {
      return Status::InvalidArgument("* not allowed with aggregates");
    }
    CollectAggregates(*item.expr, &agg_nodes);
  }
  for (const sql::OrderItem& oi : stmt.order_by) {
    CollectAggregates(*oi.expr, &agg_nodes);
  }
  for (const Expr* agg : agg_nodes) {
    const std::string& f = agg->func_name;
    if (f != "SUM" && f != "COUNT" && f != "MIN" && f != "MAX" && f != "AVG") {
      return Status::Unimplemented("aggregate function " + f);
    }
  }

  struct Group {
    std::vector<Value> keys;
    std::vector<Row> rep_rows;  // materialized first tuple, for key columns
    std::vector<AggAccum> accums;
  };
  std::map<std::string, Group> groups;

  IRDB_RETURN_IF_ERROR(JoinScan(stmt, tables, columns, [&](const RowBinding& binding) -> Status {
    std::vector<Value> keys;
    keys.reserve(stmt.group_by.size());
    std::string key_repr;
    for (const auto& ge : stmt.group_by) {
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*ge, binding));
      v.AppendTo(&key_repr);
      keys.push_back(std::move(v));
    }
    auto [it, inserted] = groups.try_emplace(key_repr);
    Group& g = it->second;
    if (inserted) {
      g.keys = std::move(keys);
      g.accums.resize(agg_nodes.size());
      g.rep_rows.reserve(binding.tables.size());
      for (const TableBinding& tb : binding.tables) {
        auto mat = tb.row->codec().Decode(tb.row->bytes());
        if (!mat.ok()) return mat.status();
        g.rep_rows.push_back(std::move(mat).value());
      }
    }
    for (size_t a = 0; a < agg_nodes.size(); ++a) {
      const Expr* agg = agg_nodes[a];
      if (agg->star_arg) {
        ++g.accums[a].count;
        g.accums[a].any = true;
        continue;
      }
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*agg->list[0], binding));
      if (v.is_null()) continue;
      g.accums[a].Add(v, agg->distinct);
    }
    return Status::Ok();
  }));

  // A global aggregate over an empty input still yields one row.
  if (groups.empty() && stmt.group_by.empty()) {
    Group g;
    g.accums.resize(agg_nodes.size());
    for (const auto& [table, _] : tables) {
      Row blank;
      blank.values.assign(table->schema().num_columns(), Value::Null());
      g.rep_rows.push_back(std::move(blank));
    }
    groups.emplace("", std::move(g));
  }

  ResultSet rs;
  for (const sql::SelectItem& item : stmt.select_items) {
    if (!item.alias.empty()) {
      rs.columns.push_back(item.alias);
    } else if (item.expr->kind == ExprKind::kColumnRef) {
      rs.columns.push_back(item.expr->column);
    } else if (item.expr->kind == ExprKind::kFuncCall) {
      rs.columns.push_back(ToLowerAscii(item.expr->func_name));
    } else {
      rs.columns.push_back("expr");
    }
  }

  std::vector<SortableRow> rows;
  for (auto& [_, g] : groups) {
    std::unordered_map<const Expr*, Value> agg_values;
    for (size_t a = 0; a < agg_nodes.size(); ++a) {
      agg_values[agg_nodes[a]] =
          g.accums[a].Finalize(agg_nodes[a]->func_name, agg_nodes[a]->distinct);
    }
    RowBinding binding;
    binding.columns = &columns;
    binding.aggregates = &agg_values;
    binding.tables.reserve(tables.size());
    for (const Row& rep : g.rep_rows) {
      binding.tables.push_back(TableBinding{nullptr, &rep});
    }
    SortableRow row;
    for (const sql::SelectItem& item : stmt.select_items) {
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, binding));
      row.out.push_back(std::move(v));
    }
    for (const sql::OrderItem& oi : stmt.order_by) {
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*oi.expr, binding));
      row.keys.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  SortAndLimit(&rows, stmt.order_by, stmt.limit, &rs.rows);
  return rs;
}

}  // namespace irdb
