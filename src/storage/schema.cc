#include "storage/schema.h"

#include "util/string_utils.h"

namespace irdb {

Schema::Schema(std::vector<Column> columns, bool has_hidden_rowid)
    : columns_(std::move(columns)), has_hidden_rowid_(has_hidden_rowid) {
  offsets_.reserve(columns_.size());
  int off = 0;
  for (const Column& c : columns_) {
    offsets_.push_back(off);
    off += c.EncodedSize();
  }
  if (has_hidden_rowid_) off += 8;
  row_size_ = off;
}

int Schema::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

Result<Value> Schema::CoerceForColumn(size_t i, const Value& v) const {
  const Column& c = columns_[i];
  if (v.is_null()) {
    if (c.not_null) {
      return Status::Constraint("column " + c.name + " is NOT NULL");
    }
    return v;
  }
  switch (c.type) {
    case ValueType::kInt:
      if (v.is_int()) return v;
      if (v.is_double()) {
        // int64 holds [-2^63, 2^63); converting anything outside it (or a
        // NaN or infinity) is undefined, so refuse it.
        const double d = v.as_double();
        if (!(d >= -0x1p63 && d < 0x1p63)) {
          return Status::Constraint("column " + c.name +
                                    ": value out of range for INTEGER");
        }
        return Value::Int(static_cast<int64_t>(d));
      }
      return Status::Constraint("column " + c.name + " expects INTEGER, got " +
                                std::string(ValueTypeName(v.type())));
    case ValueType::kDouble:
      if (v.is_numeric()) return Value::Double(v.as_double());
      return Status::Constraint("column " + c.name + " expects DOUBLE, got " +
                                std::string(ValueTypeName(v.type())));
    case ValueType::kString:
      if (!v.is_string()) {
        return Status::Constraint("column " + c.name + " expects string, got " +
                                  std::string(ValueTypeName(v.type())));
      }
      if (static_cast<int>(v.as_string().size()) > c.length) {
        return Status::Constraint("value too long for column " + c.name + " (" +
                                  std::to_string(v.as_string().size()) + " > " +
                                  std::to_string(c.length) + ")");
      }
      return v;
    default:
      return Status::Internal("bad column type");
  }
}

}  // namespace irdb
