#include "flavor/sybase_reader.h"

#include <set>

#include "proxy/rewriter.h"

namespace irdb {

std::vector<SybaseLogRow> DbccLog(const WalView& log) {
  // `dbcc log` dumps every row record — including those of aborted
  // transactions and the compensation records their rollbacks wrote. The
  // §4.3 offset-adjustment algorithm needs all of them: an aborted DELETE
  // (or a rollback's compensating DELETE) moves rows just like a committed
  // one.
  std::vector<SybaseLogRow> out;
  for (const LogRecord& rec : log) {
    if (!rec.IsRowOp()) continue;
    SybaseLogRow row;
    row.lsn = rec.lsn;
    row.xid = rec.txn_id;
    row.op = rec.op;
    row.table_id = rec.table_id;
    row.page = rec.page;
    row.offset = rec.offset;
    row.len = rec.len;
    if (rec.op == LogOp::kInsert) row.row_bytes = rec.after_image;
    if (rec.op == LogOp::kDelete) row.row_bytes = rec.before_image;
    if (rec.op == LogOp::kUpdate) row.diff = rec.diff;
    out.push_back(std::move(row));
  }
  return out;
}

std::string DbccPage(Database* db, int32_t table_id, int32_t page) {
  HeapTable* table = db->catalog().FindById(table_id);
  if (table == nullptr) return {};
  const Page* p = table->GetPage(page);
  if (p == nullptr) return {};
  return std::string(p->RawBytes());
}

Result<SybaseImages> RestoreFullImages(
    const std::vector<SybaseLogRow>& log, size_t index,
    const std::function<std::string(int32_t, int32_t)>& page_reader,
    const std::function<size_t(int32_t, int32_t)>& slot_offset) {
  IRDB_CHECK(index < log.size());
  const SybaseLogRow& rm = log[index];

  auto patch = [&](std::string* image, const std::vector<ColumnDiff>& diff,
                   bool use_before) {
    for (const ColumnDiff& d : diff) {
      const size_t off = slot_offset(rm.table_id, d.column);
      const std::string& slot = use_before ? d.before : d.after;
      IRDB_CHECK(off + slot.size() <= image->size());
      image->replace(off, slot.size(), slot);
    }
  };

  SybaseImages images;
  if (rm.op == LogOp::kInsert) {
    images.after = rm.row_bytes;
    return images;
  }
  if (rm.op == LogOp::kDelete) {
    images.before = rm.row_bytes;
    return images;
  }

  // MODIFY: deletes tombstone slots in place, so the row's offset never
  // changes (paper step 2 degenerates to identity — a strictly stronger
  // movement property than §4.3 assumes). Collect later MODIFYs of this row
  // to roll back; the loop stops at the row's own DELETE, so records of any
  // row that later reuses the slot are never misattributed.
  const int32_t cur_off = rm.offset;
  std::string base;
  bool have_base = false;
  std::vector<const SybaseLogRow*> later_mods;
  for (size_t j = index + 1; j < log.size(); ++j) {
    const SybaseLogRow& l = log[j];
    if (l.table_id != rm.table_id || l.page != rm.page) continue;
    if (l.op == LogOp::kDelete && l.offset == cur_off) {
      // Our row itself was deleted later: the DELETE record holds its
      // complete image as of that moment (paper's special case).
      base = l.row_bytes;
      have_base = true;
      break;
    }
    if (l.op == LogOp::kUpdate && l.offset == cur_off) {
      later_mods.push_back(&l);
    }
  }
  if (!have_base) {
    // Row still lives in the page: read its current bytes (paper step 3).
    std::string page_bytes = page_reader(rm.table_id, rm.page);
    if (static_cast<size_t>(cur_off) + static_cast<size_t>(rm.len) >
        page_bytes.size()) {
      return Status::Internal("dbcc page: adjusted offset out of range");
    }
    base = page_bytes.substr(static_cast<size_t>(cur_off),
                             static_cast<size_t>(rm.len));
  }
  // Roll back every later MODIFY, newest first, to recover the row as this
  // record left it.
  for (auto it = later_mods.rbegin(); it != later_mods.rend(); ++it) {
    patch(&base, (*it)->diff, /*use_before=*/true);
  }
  images.after = base;
  images.before = base;
  patch(&images.before, rm.diff, /*use_before=*/true);
  return images;
}

Result<std::vector<RepairOp>> SybaseLogReader::ReadCommitted(
    const WalView& wal) {
  std::vector<SybaseLogRow> log = DbccLog(wal);
  std::vector<int64_t> committed_list = CommittedTxnIds(wal);
  std::set<int64_t> committed(committed_list.begin(), committed_list.end());
  // Compensation records carry an aborted transaction's id, so the committed
  // filter below removes them from the repair stream; they still participate
  // in offset adjustment through `log`.
  std::set<int64_t> clr_lsns;
  for (const LogRecord& rec : wal) {
    if (rec.is_clr) clr_lsns.insert(rec.lsn);
  }

  auto page_reader = [this](int32_t table_id, int32_t page) {
    return DbccPage(db_, table_id, page);
  };
  auto slot_offset = [this](int32_t table_id, int32_t column) -> size_t {
    HeapTable* table = db_->catalog().FindById(table_id);
    IRDB_CHECK(table != nullptr);
    return static_cast<size_t>(table->schema().ColumnOffset(column));
  };

  std::vector<size_t> candidates;
  for (size_t i = 0; i < log.size(); ++i) {
    const SybaseLogRow& rec = log[i];
    if (committed.count(rec.xid) && !clr_lsns.count(rec.lsn)) {
      candidates.push_back(i);
    }
  }

  // RestoreFullImages only *reads* the shared log vector and live pages
  // (repair runs with the workload quiesced), so each reconstruction is a
  // pure function of its index and fans out per log segment.
  return ParallelBuild<RepairOp>(
      pool_, candidates.size(),
      [&](size_t k) -> Result<std::optional<RepairOp>> {
        const size_t i = candidates[k];
        const SybaseLogRow& rec = log[i];
        HeapTable* table = db_->catalog().FindById(rec.table_id);
        if (table == nullptr) return std::optional<RepairOp>();
        IRDB_ASSIGN_OR_RETURN(
            SybaseImages images,
            RestoreFullImages(log, i, page_reader, slot_offset));
        RepairOp op;
        op.lsn = rec.lsn;
        op.internal_txn_id = rec.xid;
        op.op = rec.op;
        op.table = table->name();
        IRDB_RETURN_IF_ERROR(PopulateFromFullImages(*db_, *table, images.before,
                                                    images.after, &op));
        return std::optional<RepairOp>(std::move(op));
      });
}

}  // namespace irdb
