#include "engine/recovery.h"

#include <map>
#include <set>
#include <utility>

#include "txn/wal_codec.h"

namespace irdb {

namespace {

// Where the row a record addressed is now: still in its logged slot (deletes
// tombstone in place, so offsets never slide — a strictly stronger form of
// the §4.3 movement property) or consumed by a later DELETE record at the
// same offset (whose index is reported so loser-undo can chase rows it has
// itself revived). The first later DELETE at the row's offset is the row's
// own death: a reused slot requires a prior tombstone.
struct TrackedOffset {
  int32_t offset = -1;
  int64_t deleted_by = -1;  // index of the consuming DELETE record, if any
};

template <typename Records>
TrackedOffset AdjustOffset(const Records& records, size_t index) {
  const LogRecord& rec = records[index];
  TrackedOffset out;
  for (size_t j = index + 1; j < records.size(); ++j) {
    const LogRecord& l = records[j];
    if (!l.IsRowOp() || l.table_id != rec.table_id || l.page != rec.page) {
      continue;
    }
    if (l.op == LogOp::kDelete && l.offset == rec.offset) {
      out.deleted_by = static_cast<int64_t>(j);
      return out;
    }
  }
  out.offset = rec.offset;
  return out;
}

Status ApplyDiff(HeapTable* table, RowLoc loc,
                 const std::vector<ColumnDiff>& diff, bool use_before) {
  std::string bytes(table->ReadAt(loc));
  const Schema& schema = table->schema();
  for (const ColumnDiff& d : diff) {
    const size_t off = static_cast<size_t>(schema.ColumnOffset(d.column));
    const std::string& slot = use_before ? d.before : d.after;
    if (off + slot.size() > bytes.size()) {
      return Status::Internal("recovery: diff slot out of range");
    }
    bytes.replace(off, slot.size(), slot);
  }
  table->UpdateAt(loc, bytes);
  return Status::Ok();
}

// Advances a table's rowid/identity floors past a recovered row image.
void BumpFromImage(HeapTable* table, const std::string& image) {
  const Schema& schema = table->schema();
  const RowCodec& codec = table->codec();
  int64_t rowid_floor = 0, identity_floor = 0;
  if (schema.has_hidden_rowid()) {
    rowid_floor = codec.DecodeRowId(image) + 1;
  }
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (!schema.column(i).identity) continue;
    auto v = codec.DecodeColumn(image, i);
    if (v.ok() && v->is_int()) identity_floor = v->as_int() + 1;
  }
  table->BumpCounters(rowid_floor, identity_floor);
}

// The three passes over `records`, any LSN-indexed sequence: a live log's
// snapshot or the records decoded from its durable bytes.
template <typename Records>
Result<std::unique_ptr<Database>> Recover(const Records& records,
                                          const FlavorTraits& traits) {
  auto db = std::make_unique<Database>(traits);

  // Losers: transactions that neither committed nor aborted.
  std::set<int64_t> finished;
  std::set<int64_t> started;
  int64_t max_txn_id = 0;
  for (const LogRecord& rec : records) {
    if (rec.op == LogOp::kCommit || rec.op == LogOp::kAbort) {
      finished.insert(rec.txn_id);
    }
    if (rec.txn_id > 0) started.insert(rec.txn_id);
    if (rec.txn_id > max_txn_id) max_txn_id = rec.txn_id;
  }

  // Phase 1+2: catalog rebuild and physical redo, in one forward pass.
  for (const LogRecord& rec : records) {
    if (rec.op == LogOp::kDdl) {
      auto r = db->Execute(0, rec.ddl_text);
      if (!r.ok()) {
        return Status::Internal("recovery DDL failed: " + rec.ddl_text +
                                " — " + r.status().ToString());
      }
      continue;
    }
    if (!rec.IsRowOp()) continue;
    HeapTable* table = db->catalog().FindById(rec.table_id);
    if (table == nullptr) {
      return Status::Internal("recovery: record for unknown table " +
                              std::to_string(rec.table_id));
    }
    switch (rec.op) {
      case LogOp::kInsert: {
        RowLoc loc = table->Insert(rec.after_image);
        if (loc.page != rec.page || table->OffsetOf(loc) != rec.offset) {
          return Status::Internal(
              "recovery: replayed insert landed at (" +
              std::to_string(loc.page) + "," +
              std::to_string(table->OffsetOf(loc)) + "), log says (" +
              std::to_string(rec.page) + "," + std::to_string(rec.offset) + ")");
        }
        BumpFromImage(table, rec.after_image);
        break;
      }
      case LogOp::kDelete: {
        if (rec.offset % table->schema().row_size() != 0) {
          return Status::Internal("recovery: misaligned delete offset");
        }
        table->DeleteAt(RowLoc{rec.page, rec.offset / table->schema().row_size()});
        break;
      }
      case LogOp::kUpdate: {
        RowLoc loc{rec.page, rec.offset / table->schema().row_size()};
        if (!rec.diff.empty()) {
          IRDB_RETURN_IF_ERROR(ApplyDiff(table, loc, rec.diff, false));
        } else {
          table->UpdateAt(loc, rec.after_image);
          BumpFromImage(table, rec.after_image);
        }
        break;
      }
      default:
        break;
    }
  }

  // Phase 3: undo losers, newest record first, addressing each row at its
  // current (post-redo) location. Rows a loser deleted get revived by this
  // pass; older records of the same loser may address them, so revived
  // locations are tracked. Tombstoned slots never move, so undo's own
  // deletes need no location fixups.
  std::map<int64_t, std::pair<int32_t, RowLoc>> revived;  // delete idx -> loc
  // Resolves a record's row to its current location, chasing a revival.
  auto resolve = [&](size_t ri) -> RowLoc {
    const LogRecord& rec = records[ri];
    HeapTable* table = db->catalog().FindById(rec.table_id);
    TrackedOffset t = AdjustOffset(records, ri);
    if (t.deleted_by < 0) {
      return RowLoc{rec.page, t.offset / table->schema().row_size()};
    }
    auto it = revived.find(t.deleted_by);
    if (it == revived.end()) return RowLoc{-1, -1};  // row is truly gone
    return it->second.second;
  };

  for (size_t ri = records.size(); ri-- > 0;) {
    const LogRecord& rec = records[ri];
    if (!rec.IsRowOp() || finished.count(rec.txn_id)) continue;
    HeapTable* table = db->catalog().FindById(rec.table_id);
    if (table == nullptr) continue;
    switch (rec.op) {
      case LogOp::kInsert: {
        RowLoc loc = resolve(ri);
        if (loc.page < 0) break;  // deleted later and never revived
        table->DeleteAt(loc);
        break;
      }
      case LogOp::kDelete: {
        RowLoc loc = table->Insert(rec.before_image);
        revived[static_cast<int64_t>(ri)] = {rec.table_id, loc};
        break;
      }
      case LogOp::kUpdate: {
        RowLoc loc = resolve(ri);
        if (loc.page < 0) break;
        if (!rec.diff.empty()) {
          IRDB_RETURN_IF_ERROR(ApplyDiff(table, loc, rec.diff, true));
        } else {
          table->UpdateAt(loc, rec.before_image);
        }
        break;
      }
      default:
        break;
    }
  }
  (void)max_txn_id;  // internal txn ids restart; proxy ids live in trans_dep
  return db;
}

}  // namespace

Result<std::unique_ptr<Database>> RecoverDatabase(const WalLog& wal,
                                                  const FlavorTraits& traits) {
  return Recover(wal.records(), traits);
}

Result<std::unique_ptr<Database>> RecoverDatabaseFromBytes(
    std::string_view wal_bytes, const FlavorTraits& traits,
    WalRecoveryInfo* info) {
  IRDB_ASSIGN_OR_RETURN(WalDecodeResult decoded, DecodeWal(wal_bytes));
  if (info != nullptr) {
    info->records_recovered = static_cast<int64_t>(decoded.records.size());
    info->truncated_tail = decoded.truncated_tail;
    info->dropped_bytes = decoded.dropped_bytes;
  }
  // Replayed where they were decoded: reading a log appends to none.
  return Recover(decoded.records, traits);
}

}  // namespace irdb
