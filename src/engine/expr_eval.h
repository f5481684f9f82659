// Expression evaluation over (possibly joined) rows.
//
// LazyRow decodes columns on demand so WHERE predicates over wide TPC-C rows
// only pay for the columns they touch. Column references are resolved to
// (FROM slot, column) once per statement (ColumnBindings); rows are then
// evaluated by slot.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flavor/flavor_traits.h"
#include "sql/ast.h"
#include "storage/row_codec.h"
#include "util/status.h"

namespace irdb {

// A row whose columns are decoded lazily from the page bytes.
// Does not own its bytes; valid only while the underlying page is unchanged.
class LazyRow {
 public:
  explicit LazyRow(const RowCodec* codec)
      : codec_(codec), cache_(codec->schema().num_columns()) {}

  // Points the row at an encoded row of the codec's table; the decode
  // cache keeps its storage, so a scan allocates once, not once per row.
  void Reset(std::string_view bytes) {
    bytes_ = bytes;
    ++epoch_;
  }

  Result<Value> Get(size_t col) const {
    Slot& slot = cache_[col];
    if (slot.epoch != epoch_) {
      auto v = codec_->DecodeColumn(bytes_, col);
      if (!v.ok()) return v;
      slot.value = std::move(v).value();
      slot.epoch = epoch_;
    }
    return slot.value;
  }

  int64_t rowid() const { return codec_->DecodeRowId(bytes_); }
  const RowCodec& codec() const { return *codec_; }
  std::string_view bytes() const { return bytes_; }

 private:
  struct Slot {
    uint64_t epoch = 0;  // the row's epoch when `value` was decoded
    Value value;
  };
  const RowCodec* codec_ = nullptr;
  std::string_view bytes_;
  uint64_t epoch_ = 0;
  mutable std::vector<Slot> cache_;
};

// The FROM tables as name resolution sees them, in FROM order: each
// table's schema and effective name (its alias if present, else its name).
using NameScope = std::vector<std::pair<const Schema*, std::string_view>>;

// Where a resolved column reference reads: a FROM slot and a column of that
// table, or the slot's rowid pseudo-column.
struct BoundColumn {
  static constexpr int kRowId = -1;
  int slot = -1;
  int column = kRowId;
};

// Resolves one column reference: a qualified name reads the table whose
// effective name matches the qualifier; an unqualified name must name a
// column (or the flavor's rowid) of exactly one table. Fails with
// "unknown column" / "ambiguous column" (kInvalidArgument).
Result<BoundColumn> ResolveColumnRef(const sql::Expr& ref,
                                     const NameScope& scope,
                                     const FlavorTraits& traits);

// The column references a statement evaluates per row, each resolved once
// before the scan, so evaluating a row compares no names.
class ColumnBindings {
 public:
  // Resolves every column reference in `e`; fails on the first that does
  // not resolve, even when the tables hold no rows.
  Status Bind(const sql::Expr& e, const NameScope& scope,
              const FlavorTraits& traits);

  // The resolution of a bound reference; nullptr when `ref` was not bound.
  const BoundColumn* Find(const sql::Expr& ref) const;

 private:
  std::vector<std::pair<const sql::Expr*, BoundColumn>> refs_;  // by node
};

// One FROM slot's current row: exactly one of `row` (lazy, page-backed) or
// `mat` (materialized) is set.
struct TableBinding {
  const LazyRow* row = nullptr;
  const Row* mat = nullptr;
};

// The row scope of one (joined) tuple: a row per FROM slot, read through
// the statement's bound column references.
struct RowBinding {
  std::vector<TableBinding> tables;
  const ColumnBindings* columns = nullptr;

  // Aggregate results keyed by the FuncCall node, supplied by the aggregate
  // executor; nullptr in row-level contexts (aggregates then error out).
  const std::unordered_map<const sql::Expr*, Value>* aggregates = nullptr;

  // The value a bound column reference reads; an unbound one is an
  // unknown column.
  Result<Value> Column(const sql::Expr& ref) const;
};

// Evaluates `e` in the given scope.
Result<Value> Eval(const sql::Expr& e, const RowBinding& binding);

// Collects every column reference in the subtree.
void CollectColumnRefs(const sql::Expr& e, std::vector<const sql::Expr*>* out);

// SQL truthiness: NULL -> false; numeric nonzero -> true; strings invalid.
Result<bool> IsTruthy(const Value& v);

// SQL LIKE with % and _ wildcards.
bool SqlLike(std::string_view text, std::string_view pattern);

}  // namespace irdb
