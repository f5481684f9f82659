// HeapTable: a table's rows stored across fixed-size pages.
//
// Provides physical addressing (page number, slot index / byte offset) used
// by the WAL and the per-flavor log readers, plus scan/update/delete
// primitives for the executor. Deletes tombstone their slot (storage/page.h)
// so RowLocs are stable; insert placement — lowest page with space, lowest
// dead slot within it — is a deterministic function of table state, which
// WAL redo relies on. Pages are pinned through the buffer pool (when one is
// attached) so residency is bounded and observable: writes pin for the
// operation, reads into the caller's PagePins when it passes one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/row_codec.h"
#include "storage/schema.h"
#include "storage/table_index.h"
#include "util/status.h"

namespace irdb {

class HeapTable {
 public:
  HeapTable(std::string name, Schema schema, int page_size = kDefaultPageSize,
            BufferPool* pool = nullptr);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const RowCodec& codec() const { return codec_; }
  int page_size() const { return page_size_; }

  int64_t row_count() const { return row_count_; }
  int page_count() const { return static_cast<int>(pages_.size()); }

  // Inserts an encoded row; returns where it landed.
  RowLoc Insert(std::string_view row_bytes);

  // Reads the encoded row at `loc`, pinning its page into `pins` (held until
  // the set releases); without a set the page is pinned for this call only.
  std::string_view ReadAt(RowLoc loc, PagePins* pins = nullptr) const;

  // Overwrites the row at `loc` in place.
  void UpdateAt(RowLoc loc, std::string_view row_bytes);

  // Tombstones the row at `loc`; no other row moves.
  void DeleteAt(RowLoc loc);

  // Byte offset of a slot within its page.
  int OffsetOf(RowLoc loc) const { return loc.slot * schema_.row_size(); }

  // Visits every live row; the callback may not mutate the table.
  void Scan(const std::function<void(RowLoc, std::string_view)>& fn) const;

  // Raw page access for page scans and the `dbcc page` emulation, pinned
  // like ReadAt. Returns nullptr when the page number is out of range.
  const Page* GetPage(int page_no, PagePins* pins = nullptr) const;

  // Monotonic counters owned by the table.
  int64_t NextRowId() { return next_rowid_++; }
  int64_t NextIdentity() { return next_identity_++; }
  int64_t PeekNextRowId() const { return next_rowid_; }

  // Raises the counters to at least the given values (WAL recovery replays
  // rows whose ids were assigned by the pre-crash instance).
  void BumpCounters(int64_t rowid_floor, int64_t identity_floor) {
    if (rowid_floor > next_rowid_) next_rowid_ = rowid_floor;
    if (identity_floor > next_identity_) next_identity_ = identity_floor;
  }

  // Installs the primary-key index (call before any rows are inserted).
  void SetPrimaryIndex(std::vector<int> key_columns) {
    IRDB_CHECK_MSG(row_count_ == 0, "index must be installed on empty table");
    index_ = std::make_unique<TableIndex>(std::move(key_columns));
  }
  const TableIndex* index() const { return index_.get(); }

  // CREATE INDEX: builds a named secondary index, backfilling existing rows.
  // Fails if the name is taken (case-insensitive).
  Status AddSecondaryIndex(const std::string& name,
                           std::vector<int> key_columns);
  // DROP INDEX; false when no such index exists.
  bool DropSecondaryIndex(const std::string& name);
  const TableIndex* FindSecondaryIndex(const std::string& name) const;
  const std::vector<std::unique_ptr<TableIndex>>& secondary_indexes() const {
    return secondary_indexes_;
  }

  // Buffer pool attached at construction (may be null).
  BufferPool* buffer_pool() const { return pool_; }

  // Statement-duration physical latch, owned here so it shares the table's
  // lifetime: the engine takes it shared for reads and exclusive for any
  // mutation (page vectors, free lists, counters, and the indexes are not
  // fine-grained thread-safe). Distinct from the transaction-duration 2PL
  // locks in src/concurrency — the engine acquires those first and never
  // blocks on a lock while holding a latch, so latches cannot deadlock.
  std::shared_mutex& latch() const { return latch_; }

 private:
  // Encodes `index`'s key columns of an encoded row into index_key_ and
  // returns it; the view lasts until the next call.
  std::string_view IndexKeyOf(const TableIndex& index,
                              std::string_view row_bytes);
  // True when two encoded rows hold the same bytes in `index`'s key columns.
  bool KeyColumnsEqual(const TableIndex& index, std::string_view a,
                       std::string_view b) const;
  PageGuard PinPage(int page_no) const;

  std::string name_;
  Schema schema_;
  RowCodec codec_;
  int page_size_;
  BufferPool* pool_ = nullptr;
  uint32_t pool_owner_ = 0;
  int64_t row_count_ = 0;
  int64_t next_rowid_ = 1;
  int64_t next_identity_ = 1;
  std::vector<std::unique_ptr<Page>> pages_;
  // Pages with at least one free slot. An ordered set keeps placement
  // deterministic (lowest page wins), so serial and concurrent runs that
  // apply the same operation sequence produce identical physical layouts —
  // a correctness requirement for WAL redo's placement assertion.
  std::set<int32_t> free_pages_;
  std::unique_ptr<TableIndex> index_;
  std::vector<std::unique_ptr<TableIndex>> secondary_indexes_;
  std::string index_key_;  // IndexKeyOf's buffer; writers hold the latch
  mutable std::shared_mutex latch_;
};

}  // namespace irdb
