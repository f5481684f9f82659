#include "flavor/log_reader.h"

#include <set>

#include "proxy/rewriter.h"
#include "util/string_utils.h"

namespace irdb {

std::vector<int64_t> CommittedTxnIds(const WalView& log) {
  std::vector<int64_t> out;
  for (const LogRecord& rec : log) {
    if (rec.op == LogOp::kCommit) out.push_back(rec.txn_id);
  }
  return out;
}

Status PopulateFromFullImages(const Database& db, const HeapTable& table,
                              const std::string& before_image,
                              const std::string& after_image, RepairOp* op) {
  const Schema& schema = table.schema();
  const RowCodec& codec = table.codec();
  const std::string& primary =
      op->op == LogOp::kInsert ? after_image : before_image;

  // Row address: hidden rowid when the flavor keeps one, else the injected
  // identity column.
  if (schema.has_hidden_rowid()) {
    op->row_address = codec.DecodeRowId(primary);
  } else {
    int rid_col = schema.FindColumn(proxy::kSybaseRowIdColumn);
    if (rid_col >= 0) {
      IRDB_ASSIGN_OR_RETURN(Value v, codec.DecodeColumn(primary, rid_col));
      if (v.is_int()) op->row_address = v.as_int();
    }
  }

  // before_trid: the proxy id of the row's previous writer.
  if (op->op == LogOp::kUpdate || op->op == LogOp::kDelete) {
    int trid_col = schema.FindColumn(proxy::kTridColumn);
    if (trid_col >= 0) {
      IRDB_ASSIGN_OR_RETURN(Value v, codec.DecodeColumn(before_image, trid_col));
      if (v.is_int() && v.as_int() > 0) op->before_trid = v.as_int();
    }
  }

  // Restore values.
  switch (op->op) {
    case LogOp::kInsert:
    case LogOp::kDelete: {
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        IRDB_ASSIGN_OR_RETURN(Value v, codec.DecodeColumn(primary, i));
        op->values.emplace_back(schema.column(i).name, std::move(v));
      }
      break;
    }
    case LogOp::kUpdate: {
      // Changed columns only — the reverse UPDATE restores exactly these.
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        const size_t off = static_cast<size_t>(schema.ColumnOffset(i));
        const size_t sz = static_cast<size_t>(schema.column(i).EncodedSize());
        if (std::string_view(before_image).substr(off, sz) !=
            std::string_view(after_image).substr(off, sz)) {
          IRDB_ASSIGN_OR_RETURN(Value v, codec.DecodeColumn(before_image, i));
          op->values.emplace_back(schema.column(i).name, std::move(v));
        }
      }
      break;
    }
    default:
      return Status::Internal("PopulateFromFullImages: not a row op");
  }

  // trans_dep / tracking_gaps correlation.
  if (op->op == LogOp::kInsert &&
      EqualsIgnoreCase(table.name(), proxy::kTransDepTable)) {
    op->is_trans_dep_insert = true;
    for (const auto& [name, v] : op->values) {
      if (EqualsIgnoreCase(name, "tr_id") && v.is_int()) {
        op->inserted_tr_id = v.as_int();
      }
      if (EqualsIgnoreCase(name, "dep_tr_ids") && v.is_string()) {
        op->inserted_dep_payload = v.as_string();
      }
    }
  }
  if (op->op == LogOp::kInsert &&
      EqualsIgnoreCase(table.name(), proxy::kTrackingGapsTable)) {
    op->is_tracking_gap_insert = true;
    for (const auto& [name, v] : op->values) {
      if (EqualsIgnoreCase(name, "tr_id") && v.is_int()) {
        op->inserted_tr_id = v.as_int();
      }
    }
  }
  (void)db;
  return Status::Ok();
}

}  // namespace irdb
