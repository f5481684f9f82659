// Append-only write-ahead log.
//
// Appends are thread-safe (concurrent sessions interleave their records;
// every record carries its txn_id, which is how recovery and repair
// untangle them). Records live in fixed-size segments that are never
// reallocated, so a record never moves once appended. records() returns a
// WalView bounded by the end LSN captured under the append lock; appends
// only ever construct slots past that bound, so every reader — the flavor
// log readers, repair, the codec, recovery — scans its view with no lock
// held while the log keeps growing.
#pragma once

#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include "obs/catalog.h"
#include "txn/log_record.h"
#include "util/status.h"

namespace irdb {

// Records per segment: a power of two, so an LSN splits into segment index
// and slot with a shift and a mask.
inline constexpr size_t kWalSegmentShift = 10;
inline constexpr size_t kWalSegmentRecords = size_t{1} << kWalSegmentShift;

// An immutable snapshot of a WalLog: the records with LSN in [0, size()),
// indexed by LSN. Holds the segment base pointers and the count, never a
// record copy. Must not outlive its log.
class WalView {
 public:
  class Iterator {
   public:
    Iterator(const WalView* view, size_t lsn) : view_(view), lsn_(lsn) {}
    const LogRecord& operator*() const { return (*view_)[lsn_]; }
    Iterator& operator++() {
      ++lsn_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return lsn_ != other.lsn_; }

   private:
    const WalView* view_;
    size_t lsn_;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const LogRecord& operator[](size_t lsn) const {
    return segments_[lsn >> kWalSegmentShift][lsn & (kWalSegmentRecords - 1)];
  }
  const LogRecord& back() const { return (*this)[size_ - 1]; }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size_}; }

 private:
  friend class WalLog;
  std::vector<const LogRecord*> segments_;
  size_t size_ = 0;
};

class WalLog {
 public:
  WalLog() = default;
  WalLog(const WalLog&) = delete;
  WalLog& operator=(const WalLog&) = delete;
  ~WalLog() {
    for (size_t lsn = 0; lsn < end_; ++lsn) Slot(lsn)->~LogRecord();
    for (LogRecord* segment : segments_) ::operator delete(segment);
  }

  // Appends a record, assigning its LSN. Returns the LSN.
  int64_t Append(LogRecord rec) {
    obs::Count(obs::Metrics::Get().wal_appends);
    std::lock_guard<std::mutex> lk(mu_);
    const size_t lsn = end_;
    if (lsn == segments_.size() * kWalSegmentRecords) {
      // Raw storage: each slot is constructed only when its record arrives.
      segments_.push_back(static_cast<LogRecord*>(
          ::operator new(kWalSegmentRecords * sizeof(LogRecord))));
    }
    rec.lsn = static_cast<int64_t>(lsn);
    new (Slot(lsn)) LogRecord(std::move(rec));
    end_ = lsn + 1;
    return static_cast<int64_t>(lsn);
  }

  // Snapshot of every record appended so far.
  WalView records() const {
    WalView view;
    std::lock_guard<std::mutex> lk(mu_);
    view.segments_.assign(segments_.begin(), segments_.end());
    view.size_ = end_;
    return view;
  }

  int64_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<int64_t>(end_);
  }

  const LogRecord& at(int64_t lsn) const {
    std::lock_guard<std::mutex> lk(mu_);
    IRDB_CHECK(lsn >= 0 && static_cast<size_t>(lsn) < end_);
    return *Slot(static_cast<size_t>(lsn));
  }

  // Total byte volume appended (for the I/O cost model).
  int64_t bytes_appended() const {
    std::lock_guard<std::mutex> lk(mu_);
    return bytes_appended_;
  }
  void AccountBytes(int64_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    bytes_appended_ += n;
  }

 private:
  LogRecord* Slot(size_t lsn) const {
    return segments_[lsn >> kWalSegmentShift] + (lsn & (kWalSegmentRecords - 1));
  }

  mutable std::mutex mu_;
  std::vector<LogRecord*> segments_;
  size_t end_ = 0;
  int64_t bytes_appended_ = 0;
};

}  // namespace irdb
