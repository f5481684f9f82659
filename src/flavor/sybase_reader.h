// Sybase-flavor log access (§4.3).
//
// Sybase peculiarities reproduced here:
//  - tables have no row-ID pseudo-column; the proxy injects a
//    `rid numeric identity` column at CREATE TABLE time;
//  - `dbcc log` dumps raw log records: INSERT/DELETE carry the complete row
//    bytes, MODIFY carries only the changed byte ranges, so the injected rid
//    never appears in a MODIFY record;
//  - records address rows by (page, byte offset) *at operation time*, and a
//    DELETE compacts its page, shifting every later row toward the front;
//  - `dbcc page` returns the page's current raw bytes.
//
// RestoreFullImages() is the paper's offset-adjustment algorithm, extended
// to chains of MODIFYs on the same row: scanning forward from a MODIFY
// record, later same-page DELETEs at lower offsets pull the row's current
// offset down; a DELETE *of* the row supplies its image directly; otherwise
// `dbcc page` at the final adjusted offset does; later MODIFYs of the row
// are then rolled back (their before-slots patched in, newest first) to
// recover the row as it stood at the record's time.
#pragma once

#include "flavor/log_reader.h"

namespace irdb {

// What `dbcc log` outputs for one record — every row record in the log,
// including aborted transactions' operations and their rollback
// compensation records (all of which move rows within pages).
struct SybaseLogRow {
  int64_t lsn = 0;
  int64_t xid = 0;
  LogOp op = LogOp::kInsert;  // kInsert / kDelete / kUpdate ("MODIFY")
  int32_t table_id = -1;
  int32_t page = -1;
  int32_t offset = -1;
  int32_t len = 0;
  std::string row_bytes;          // full row (INSERT/DELETE)
  std::vector<ColumnDiff> diff;   // changed slots (MODIFY)
};

// Emulates `dbcc log` over `log`, a snapshot of a database's WAL.
std::vector<SybaseLogRow> DbccLog(const WalView& log);

// Emulates `dbcc page`: current raw bytes of one page (empty if bad page).
std::string DbccPage(Database* db, int32_t table_id, int32_t page);

// Reconstructed full images for one log record.
struct SybaseImages {
  std::string before;  // empty for INSERT
  std::string after;   // empty for DELETE
};

// The §4.3 algorithm. `index` selects the record in `log` to reconstruct;
// `page_reader` supplies current page bytes (normally DbccPage);
// `slot_offset(table_id, column)` gives a column slot's byte offset within a
// row (normally from the catalog's schema — injectable so property tests can
// drive the algorithm with synthetic logs).
Result<SybaseImages> RestoreFullImages(
    const std::vector<SybaseLogRow>& log, size_t index,
    const std::function<std::string(int32_t, int32_t)>& page_reader,
    const std::function<size_t(int32_t, int32_t)>& slot_offset);

class SybaseLogReader : public FlavorLogReader {
 public:
  using FlavorLogReader::FlavorLogReader;
  using FlavorLogReader::ReadCommitted;

  Result<std::vector<RepairOp>> ReadCommitted(const WalView& log) override;

  std::string name() const override { return "sybase-dbcc"; }
};

}  // namespace irdb
