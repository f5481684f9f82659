// Table schema: column metadata plus the fixed-width on-page layout.
//
// Rows are encoded fixed-width (strings get a capacity from VARCHAR/CHAR(n)),
// so a row's byte length never changes across UPDATEs: a row occupies one
// slot at a fixed offset for its whole life (deletes tombstone the slot, see
// storage/page.h), and UPDATE rewrites it in place. This is a strictly
// stronger form of the movement property the paper's §4.3 algorithm needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/value.h"
#include "util/status.h"

namespace irdb {

struct Column {
  std::string name;
  ValueType type = ValueType::kInt;  // kInt / kDouble / kString
  int length = 0;                    // string capacity (bytes), 0 for scalars
  bool not_null = false;
  bool identity = false;  // auto-assigned monotonically when inserted as NULL

  // Encoded size on page: 1 null byte + payload.
  int EncodedSize() const {
    switch (type) {
      case ValueType::kInt:
      case ValueType::kDouble:
        return 1 + 8;
      case ValueType::kString:
        return 1 + 2 + length;
      default:
        return 1;
    }
  }
};

class Schema {
 public:
  Schema() = default;
  Schema(std::vector<Column> columns, bool has_hidden_rowid);

  const std::vector<Column>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

  // True when the engine maintains a hidden row ID in each encoded row
  // (Postgres/Oracle flavors). Sybase flavor runs without one.
  bool has_hidden_rowid() const { return has_hidden_rowid_; }

  // Case-insensitive column lookup; -1 if absent.
  int FindColumn(std::string_view name) const;

  // Byte offset of column i's encoding within a row.
  int ColumnOffset(size_t i) const { return offsets_[i]; }

  // Total encoded row size (including the hidden rowid if present).
  int row_size() const { return row_size_; }

  // Offset of the hidden rowid field (last 8 bytes); requires has_hidden_rowid.
  int rowid_offset() const {
    IRDB_CHECK(has_hidden_rowid_);
    return row_size_ - 8;
  }

  // Validates `v` against column i (type coercion allowed int<->double,
  // NOT NULL, string capacity). Returns the possibly-coerced value. A
  // DOUBLE coerces to INTEGER by truncation toward zero; one outside the
  // int64 range, or non-finite, is a Constraint error ("out of range for
  // INTEGER"), so an index probe falls back or leaves that bound open.
  Result<Value> CoerceForColumn(size_t i, const Value& v) const;

 private:
  std::vector<Column> columns_;
  std::vector<int> offsets_;
  bool has_hidden_rowid_ = false;
  int row_size_ = 0;
};

}  // namespace irdb
