#include "engine/expr_eval.h"

#include <algorithm>

#include "util/string_utils.h"

namespace irdb {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::UnaryOp;

namespace {

std::string RefName(const Expr& ref) {
  return ref.table.empty() ? ref.column : ref.table + "." + ref.column;
}

}  // namespace

Result<BoundColumn> ResolveColumnRef(const Expr& ref, const NameScope& scope,
                                     const FlavorTraits& traits) {
  const bool is_rowid =
      traits.has_rowid && EqualsIgnoreCase(ref.column, traits.rowid_name);
  BoundColumn hit;
  for (size_t i = 0; i < scope.size(); ++i) {
    const auto& [schema, name] = scope[i];
    if (!ref.table.empty() && !EqualsIgnoreCase(name, ref.table)) continue;
    const int col = schema->FindColumn(ref.column);  // a real column wins
    if (col < 0 && !is_rowid) continue;
    if (hit.slot >= 0) {
      return Status::InvalidArgument("ambiguous column " + ref.column);
    }
    hit = BoundColumn{static_cast<int>(i), col < 0 ? BoundColumn::kRowId : col};
    if (!ref.table.empty()) break;
  }
  if (hit.slot < 0) {
    return Status::InvalidArgument("unknown column " + RefName(ref));
  }
  return hit;
}

Status ColumnBindings::Bind(const Expr& e, const NameScope& scope,
                            const FlavorTraits& traits) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  for (const Expr* ref : refs) {
    IRDB_ASSIGN_OR_RETURN(BoundColumn b, ResolveColumnRef(*ref, scope, traits));
    refs_.emplace_back(ref, b);
  }
  std::sort(refs_.begin(), refs_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return Status::Ok();
}

const BoundColumn* ColumnBindings::Find(const Expr& ref) const {
  auto it = std::lower_bound(
      refs_.begin(), refs_.end(), &ref,
      [](const auto& entry, const Expr* key) { return entry.first < key; });
  if (it == refs_.end() || it->first != &ref) return nullptr;
  return &it->second;
}

Result<Value> RowBinding::Column(const Expr& ref) const {
  const BoundColumn* b = columns != nullptr ? columns->Find(ref) : nullptr;
  if (b == nullptr) {
    return Status::InvalidArgument("unknown column " + RefName(ref));
  }
  const TableBinding& tb = tables[static_cast<size_t>(b->slot)];
  if (b->column == BoundColumn::kRowId) {
    return Value::Int(tb.row != nullptr ? tb.row->rowid() : tb.mat->rowid);
  }
  if (tb.row != nullptr) return tb.row->Get(static_cast<size_t>(b->column));
  return tb.mat->values[static_cast<size_t>(b->column)];
}

void CollectColumnRefs(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kColumnRef) out->push_back(&e);
  if (e.lhs) CollectColumnRefs(*e.lhs, out);
  if (e.rhs) CollectColumnRefs(*e.rhs, out);
  if (e.low) CollectColumnRefs(*e.low, out);
  if (e.high) CollectColumnRefs(*e.high, out);
  for (const auto& item : e.list) CollectColumnRefs(*item, out);
}

Result<bool> IsTruthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return false;
    case ValueType::kInt: return v.as_int() != 0;
    case ValueType::kDouble: return v.as_double() != 0.0;
    case ValueType::kString:
      return Status::InvalidArgument("string used in boolean context");
  }
  return false;
}

bool SqlLike(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer match with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

Result<Value> EvalArithmetic(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  const bool ints = a.is_int() && b.is_int();
  switch (op) {
    case BinaryOp::kAdd:
      return ints ? Value::Int(a.as_int() + b.as_int())
                  : Value::Double(a.as_double() + b.as_double());
    case BinaryOp::kSub:
      return ints ? Value::Int(a.as_int() - b.as_int())
                  : Value::Double(a.as_double() - b.as_double());
    case BinaryOp::kMul:
      return ints ? Value::Int(a.as_int() * b.as_int())
                  : Value::Double(a.as_double() * b.as_double());
    case BinaryOp::kDiv:
      if (ints) {
        if (b.as_int() == 0) return Status::InvalidArgument("division by zero");
        return Value::Int(a.as_int() / b.as_int());
      }
      if (b.as_double() == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(a.as_double() / b.as_double());
    case BinaryOp::kMod:
      if (!ints) return Status::InvalidArgument("% requires integers");
      if (b.as_int() == 0) return Status::InvalidArgument("modulo by zero");
      return Value::Int(a.as_int() % b.as_int());
    default:
      return Status::Internal("not an arithmetic op");
  }
}

Result<Value> EvalComparison(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.is_string() != b.is_string()) {
    return Status::InvalidArgument("comparing string with non-string");
  }
  const int c = a.Compare(b);
  bool r = false;
  switch (op) {
    case BinaryOp::kEq: r = c == 0; break;
    case BinaryOp::kNeq: r = c != 0; break;
    case BinaryOp::kLt: r = c < 0; break;
    case BinaryOp::kLe: r = c <= 0; break;
    case BinaryOp::kGt: r = c > 0; break;
    case BinaryOp::kGe: r = c >= 0; break;
    default: return Status::Internal("not a comparison op");
  }
  return Value::Int(r ? 1 : 0);
}

// Kleene three-valued AND/OR over {false, true, null}.
Result<Value> EvalLogical(BinaryOp op, const Expr& lhs, const Expr& rhs,
                          const RowBinding& binding) {
  IRDB_ASSIGN_OR_RETURN(Value a, Eval(lhs, binding));
  // Short circuit where the result is determined.
  if (!a.is_null()) {
    IRDB_ASSIGN_OR_RETURN(bool at, IsTruthy(a));
    if (op == BinaryOp::kAnd && !at) return Value::Int(0);
    if (op == BinaryOp::kOr && at) return Value::Int(1);
  }
  IRDB_ASSIGN_OR_RETURN(Value b, Eval(rhs, binding));
  if (b.is_null()) {
    if (a.is_null()) return Value::Null();
    // a is the non-determining operand value here.
    return Value::Null();
  }
  IRDB_ASSIGN_OR_RETURN(bool bt, IsTruthy(b));
  if (op == BinaryOp::kAnd) {
    if (!bt) return Value::Int(0);
    return a.is_null() ? Value::Null() : Value::Int(1);
  }
  if (bt) return Value::Int(1);
  return a.is_null() ? Value::Null() : Value::Int(0);
}

}  // namespace

Result<Value> Eval(const Expr& e, const RowBinding& binding) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumnRef:
      return binding.Column(e);
    case ExprKind::kBinary: {
      switch (e.bin_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          return EvalLogical(e.bin_op, *e.lhs, *e.rhs, binding);
        case BinaryOp::kEq: case BinaryOp::kNeq: case BinaryOp::kLt:
        case BinaryOp::kLe: case BinaryOp::kGt: case BinaryOp::kGe: {
          IRDB_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
          IRDB_ASSIGN_OR_RETURN(Value b, Eval(*e.rhs, binding));
          return EvalComparison(e.bin_op, a, b);
        }
        case BinaryOp::kLike: {
          IRDB_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
          IRDB_ASSIGN_OR_RETURN(Value b, Eval(*e.rhs, binding));
          if (a.is_null() || b.is_null()) return Value::Null();
          if (!a.is_string() || !b.is_string()) {
            return Status::InvalidArgument("LIKE requires strings");
          }
          return Value::Int(SqlLike(a.as_string(), b.as_string()) ? 1 : 0);
        }
        default: {
          IRDB_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
          IRDB_ASSIGN_OR_RETURN(Value b, Eval(*e.rhs, binding));
          return EvalArithmetic(e.bin_op, a, b);
        }
      }
    }
    case ExprKind::kUnary: {
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*e.lhs, binding));
      switch (e.un_op) {
        case UnaryOp::kNot: {
          if (v.is_null()) return Value::Null();
          IRDB_ASSIGN_OR_RETURN(bool t, IsTruthy(v));
          return Value::Int(t ? 0 : 1);
        }
        case UnaryOp::kNeg:
          if (v.is_null()) return Value::Null();
          if (v.is_int()) return Value::Int(-v.as_int());
          if (v.is_double()) return Value::Double(-v.as_double());
          return Status::InvalidArgument("negating non-numeric value");
        case UnaryOp::kIsNull:
          return Value::Int(v.is_null() ? 1 : 0);
        case UnaryOp::kIsNotNull:
          return Value::Int(v.is_null() ? 0 : 1);
      }
      return Status::Internal("bad unary op");
    }
    case ExprKind::kBetween: {
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*e.lhs, binding));
      IRDB_ASSIGN_OR_RETURN(Value lo, Eval(*e.low, binding));
      IRDB_ASSIGN_OR_RETURN(Value hi, Eval(*e.high, binding));
      IRDB_ASSIGN_OR_RETURN(Value ge, EvalComparison(BinaryOp::kGe, v, lo));
      IRDB_ASSIGN_OR_RETURN(Value le, EvalComparison(BinaryOp::kLe, v, hi));
      if (ge.is_null() || le.is_null()) return Value::Null();
      return Value::Int(ge.as_int() != 0 && le.as_int() != 0 ? 1 : 0);
    }
    case ExprKind::kInList: {
      IRDB_ASSIGN_OR_RETURN(Value v, Eval(*e.lhs, binding));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      for (const auto& item : e.list) {
        IRDB_ASSIGN_OR_RETURN(Value w, Eval(*item, binding));
        if (w.is_null()) {
          saw_null = true;
          continue;
        }
        IRDB_ASSIGN_OR_RETURN(Value eq, EvalComparison(BinaryOp::kEq, v, w));
        if (!eq.is_null() && eq.as_int() != 0) return Value::Int(1);
      }
      return saw_null ? Value::Null() : Value::Int(0);
    }
    case ExprKind::kFuncCall: {
      if (binding.aggregates != nullptr) {
        auto it = binding.aggregates->find(&e);
        if (it != binding.aggregates->end()) return it->second;
      }
      return Status::InvalidArgument("aggregate " + e.func_name +
                                     " outside aggregate context");
    }
  }
  return Status::Internal("bad expression kind");
}

}  // namespace irdb
