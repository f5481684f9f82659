#include "flavor/oracle_logminer.h"

#include <set>

#include "proxy/rewriter.h"
#include "sql/parser.h"
#include "util/string_utils.h"

namespace irdb {

namespace {

// Renders "INSERT INTO t(c1, ..., cn) VALUES (v1, ..., vn)".
std::string RenderInsert(const HeapTable& table, const std::string& image) {
  const Schema& schema = table.schema();
  const RowCodec& codec = table.codec();
  std::string cols, vals;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i) {
      cols.append(", ");
      vals.append(", ");
    }
    cols.append(schema.column(i).name);
    auto v = codec.DecodeColumn(image, i);
    IRDB_CHECK(v.ok());
    vals.append(v->ToSqlLiteral());
  }
  return "INSERT INTO " + table.name() + "(" + cols + ") VALUES (" + vals + ")";
}

std::string RenderDelete(const HeapTable& table, int64_t rowid) {
  return "DELETE FROM " + table.name() + " WHERE rowid = " +
         std::to_string(rowid);
}

// Renders "UPDATE t SET <changed cols from `src`> WHERE rowid = N".
std::string RenderUpdate(const HeapTable& table, const std::string& src,
                         const std::string& other, int64_t rowid) {
  const Schema& schema = table.schema();
  const RowCodec& codec = table.codec();
  std::string sets;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    const size_t off = static_cast<size_t>(schema.ColumnOffset(i));
    const size_t sz = static_cast<size_t>(schema.column(i).EncodedSize());
    if (std::string_view(src).substr(off, sz) ==
        std::string_view(other).substr(off, sz)) {
      continue;
    }
    if (!sets.empty()) sets.append(", ");
    auto v = codec.DecodeColumn(src, i);
    IRDB_CHECK(v.ok());
    sets.append(schema.column(i).name).append(" = ").append(v->ToSqlLiteral());
  }
  return "UPDATE " + table.name() + " SET " + sets +
         " WHERE rowid = " + std::to_string(rowid);
}

}  // namespace

Result<std::vector<LogMinerRow>> BuildLogMinerView(Database* db,
                                                   const WalView& log,
                                                   util::ThreadPool* pool) {
  IRDB_CHECK_MSG(db->traits().has_rowid,
                 "LogMiner emulation requires the rowid pseudo-column");
  std::vector<int64_t> committed_list = CommittedTxnIds(log);
  std::set<int64_t> committed(committed_list.begin(), committed_list.end());

  std::vector<size_t> candidates;
  for (size_t i = 0; i < log.size(); ++i) {
    const LogRecord& rec = log[i];
    if (rec.IsRowOp() && committed.count(rec.txn_id)) candidates.push_back(i);
  }

  // The expensive part — decoding every column to literal text — is a pure
  // function of one record, so it fans out per log segment.
  return ParallelBuild<LogMinerRow>(
      pool, candidates.size(),
      [&](size_t k) -> Result<std::optional<LogMinerRow>> {
        const LogRecord& rec = log[candidates[k]];
        HeapTable* table = db->catalog().FindById(rec.table_id);
        if (table == nullptr) return std::optional<LogMinerRow>();
        LogMinerRow row;
        row.scn = rec.lsn;
        row.xid = rec.txn_id;
        row.table_name = table->name();
        const RowCodec& codec = table->codec();
        switch (rec.op) {
          case LogOp::kInsert: {
            const int64_t rowid = codec.DecodeRowId(rec.after_image);
            row.operation = "INSERT";
            row.sql_redo = RenderInsert(*table, rec.after_image);
            row.sql_undo = RenderDelete(*table, rowid);
            break;
          }
          case LogOp::kDelete: {
            const int64_t rowid = codec.DecodeRowId(rec.before_image);
            row.operation = "DELETE";
            row.sql_redo = RenderDelete(*table, rowid);
            row.sql_undo = RenderInsert(*table, rec.before_image);
            break;
          }
          case LogOp::kUpdate: {
            const int64_t rowid = codec.DecodeRowId(rec.before_image);
            row.operation = "UPDATE";
            row.sql_redo =
                RenderUpdate(*table, rec.after_image, rec.before_image, rowid);
            row.sql_undo =
                RenderUpdate(*table, rec.before_image, rec.after_image, rowid);
            break;
          }
          default:
            return std::optional<LogMinerRow>();
        }
        return std::optional<LogMinerRow>(std::move(row));
      });
}

namespace {

// Extracts N from "WHERE rowid = N".
Result<int64_t> RowIdFromWhere(const sql::Expr* where) {
  if (where == nullptr) {
    return Status::InvalidArgument("LogMiner SQL lacks a WHERE clause");
  }
  if (where->kind != sql::ExprKind::kBinary ||
      where->bin_op != sql::BinaryOp::kEq ||
      where->lhs->kind != sql::ExprKind::kColumnRef ||
      !EqualsIgnoreCase(where->lhs->column, "rowid") ||
      where->rhs->kind != sql::ExprKind::kLiteral ||
      !where->rhs->literal.is_int()) {
    return Status::InvalidArgument("LogMiner WHERE is not a rowid equality");
  }
  return where->rhs->literal.as_int();
}

Result<Value> LiteralOf(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kLiteral) return e.literal;
  if (e.kind == sql::ExprKind::kUnary && e.un_op == sql::UnaryOp::kNeg &&
      e.lhs->kind == sql::ExprKind::kLiteral) {
    const Value& v = e.lhs->literal;
    if (v.is_int()) return Value::Int(-v.as_int());
    if (v.is_double()) return Value::Double(-v.as_double());
  }
  return Status::InvalidArgument("LogMiner SQL has a non-literal value");
}

}  // namespace

Result<std::vector<RepairOp>> OracleLogReader::ReadCommitted(
    const WalView& log) {
  IRDB_ASSIGN_OR_RETURN(std::vector<LogMinerRow> view,
                        BuildLogMinerView(db_, log, pool_));
  // Parsing the redo/undo SQL back into ops is per-row pure work; it rides
  // the same segmented fan-out as the view construction above.
  return ParallelBuild<RepairOp>(
      pool_, view.size(), [&](size_t k) -> Result<std::optional<RepairOp>> {
        const LogMinerRow& row = view[k];
        RepairOp op;
        op.lsn = row.scn;
        op.internal_txn_id = row.xid;
        op.table = row.table_name;

        auto redo = sql::Parse(row.sql_redo);
        if (!redo.ok()) return redo.status();
        auto undo = sql::Parse(row.sql_undo);
        if (!undo.ok()) return undo.status();

        if (row.operation == "INSERT") {
          op.op = LogOp::kInsert;
          // Address from the undo DELETE; values from the redo INSERT.
          IRDB_ASSIGN_OR_RETURN(op.row_address,
                                RowIdFromWhere((*undo)->where.get()));
          const sql::Statement& ins = **redo;
          for (size_t i = 0; i < ins.insert_columns.size(); ++i) {
            IRDB_ASSIGN_OR_RETURN(Value v, LiteralOf(*ins.insert_rows[0][i]));
            op.values.emplace_back(ins.insert_columns[i], std::move(v));
          }
        } else if (row.operation == "DELETE") {
          op.op = LogOp::kDelete;
          IRDB_ASSIGN_OR_RETURN(op.row_address,
                                RowIdFromWhere((*redo)->where.get()));
          const sql::Statement& ins = **undo;
          for (size_t i = 0; i < ins.insert_columns.size(); ++i) {
            IRDB_ASSIGN_OR_RETURN(Value v, LiteralOf(*ins.insert_rows[0][i]));
            op.values.emplace_back(ins.insert_columns[i], std::move(v));
          }
        } else if (row.operation == "UPDATE") {
          op.op = LogOp::kUpdate;
          IRDB_ASSIGN_OR_RETURN(op.row_address,
                                RowIdFromWhere((*undo)->where.get()));
          for (const auto& [col, expr] : (*undo)->assignments) {
            IRDB_ASSIGN_OR_RETURN(Value v, LiteralOf(*expr));
            op.values.emplace_back(col, std::move(v));
          }
        } else {
          return Status::Internal("unexpected LogMiner operation " +
                                  row.operation);
        }

        // before_trid: for UPDATE the undo SET restores the old trid (the
        // proxy always modifies trid, so it is in the changed set); for
        // DELETE the undo INSERT carries the full row including trid.
        if (op.op == LogOp::kUpdate || op.op == LogOp::kDelete) {
          for (const auto& [col, v] : op.values) {
            if (EqualsIgnoreCase(col, proxy::kTridColumn) && v.is_int() &&
                v.as_int() > 0) {
              op.before_trid = v.as_int();
            }
          }
        }
        if (op.op == LogOp::kInsert &&
            EqualsIgnoreCase(op.table, proxy::kTransDepTable)) {
          op.is_trans_dep_insert = true;
          for (const auto& [col, v] : op.values) {
            if (EqualsIgnoreCase(col, "tr_id") && v.is_int()) {
              op.inserted_tr_id = v.as_int();
            }
            if (EqualsIgnoreCase(col, "dep_tr_ids") && v.is_string()) {
              op.inserted_dep_payload = v.as_string();
            }
          }
        }
        if (op.op == LogOp::kInsert &&
            EqualsIgnoreCase(op.table, proxy::kTrackingGapsTable)) {
          op.is_tracking_gap_insert = true;
          for (const auto& [col, v] : op.values) {
            if (EqualsIgnoreCase(col, "tr_id") && v.is_int()) {
              op.inserted_tr_id = v.as_int();
            }
          }
        }
        return std::optional<RepairOp>(std::move(op));
      });
}

}  // namespace irdb
