// Ordered table index (primary key or CREATE INDEX secondary) backed by the
// byte-keyed B+ tree.
//
// Key column values encode to order-preserving bytes (storage/bptree.h), so
// an equality prefix over leading key columns is a byte-prefix scan and
// range predicates on the next column are byte-interval scans. RowLocs are
// stable under tombstone deletes, so entries never need fixing up when other
// rows of a page die — the per-page shift registry the compacting heap
// needed is gone.
//
// The index takes keys already encoded: the heap table encodes a row's key
// columns into one reused buffer, and the engine encodes each probe's bounds
// into buffers its statement owns and reuses for every outer row. A probe is
// a Range over the tree's cursor that yields each RowLoc where its entry
// lies, so no probe allocates once those buffers have grown.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "storage/bptree.h"
#include "storage/row_codec.h"
#include "util/status.h"

namespace irdb {

class TableIndex {
 public:
  // The entries of one probe, in key order: from the first key >= `lower`
  // up to the first key that is greater than `upper` and does not start
  // with it. `upper` is the full encoding of the probe's last bound column,
  // so keys extending it (deeper key columns under an equal bound value)
  // still belong to the range, and Scan(p, p) visits every key starting
  // with the prefix p. Bounds are inclusive: callers re-check the full
  // predicate per row, so a strict bound only over-approximates. A Range
  // views the tree and `upper`, and stays valid while neither changes (see
  // BPTree::Cursor for why a statement's latches guarantee that).
  class Range {
   public:
    bool Valid() const {
      if (!cursor_.Valid()) return false;
      const std::string_view key = cursor_.key();
      return key <= upper_ || key.substr(0, upper_.size()) == upper_;
    }
    RowLoc loc() const {
      const uint64_t packed = cursor_.value();
      return RowLoc{UnpackPage(packed), UnpackSlot(packed)};
    }
    void Next() { cursor_.Next(); }

   private:
    friend class TableIndex;
    Range(BPTree::Cursor cursor, std::string_view upper)
        : cursor_(cursor), upper_(upper) {}

    BPTree::Cursor cursor_;
    std::string_view upper_;
  };

  explicit TableIndex(std::vector<int> key_columns, std::string name = "")
      : key_columns_(std::move(key_columns)), name_(std::move(name)) {}

  const std::vector<int>& key_columns() const { return key_columns_; }
  const std::string& name() const { return name_; }

  // `key` is the AppendEncodedKeyValue encoding of the row's key columns,
  // in key_columns() order.
  void Insert(std::string_view key, RowLoc loc) {
    tree_.Insert(key, PackLoc(loc.page, loc.slot));
  }

  void Erase(std::string_view key, RowLoc loc) {
    bool erased = tree_.Erase(key, PackLoc(loc.page, loc.slot));
    IRDB_CHECK_MSG(erased, "index erase: entry missing");
  }

  Range Scan(std::string_view lower, std::string_view upper) const {
    return Range(tree_.Seek(lower), upper);
  }

  size_t entry_count() const { return tree_.size(); }
  int height() const { return tree_.height(); }

 private:
  std::vector<int> key_columns_;
  std::string name_;
  BPTree tree_;
};

}  // namespace irdb
