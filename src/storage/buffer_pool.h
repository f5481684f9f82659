// Buffer pool manager: LRU-K residency tracking with pin counts.
//
// The engine keeps page bytes in memory for their whole lifetime (the WAL
// and the flavor emulations address raw in-memory pages), so the pool does
// not own page storage; it is the residency authority layered over the
// heap: a bounded number of frames are resident at once, and crossing the
// capacity evicts the unpinned frame with the largest backward k-distance
// (LRU-K; frames with fewer than K recorded accesses evict first, oldest
// first access breaking ties — scan bursts cannot flush the hot set, which
// plain LRU gets wrong). Misses and evictions are observable
// (irdb_bufferpool_* counters); nothing charges them as simulated I/O —
// the IoModel keeps its own page cache (ROADMAP item 5).
//
// Two ways to pin. A write (and any one-off access) pins for one operation
// through an RAII PageGuard. A statement's reads go through a PagePins set,
// which pins each page on its first read and holds it until the statement
// ends, so repeated reads of one page skip the pool's mutex (one correlated
// reference in LRU-K's terms: one recorded access per statement and page).
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace irdb {

class BufferPool;

// RAII pin: the frame cannot be evicted while a guard on it lives.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint64_t key) : pool_(pool), key_(key) {}
  PageGuard(PageGuard&& o) noexcept : pool_(o.pool_), key_(o.key_) {
    o.pool_ = nullptr;
  }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      key_ = o.key_;
      o.pool_ = nullptr;
    }
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint64_t key_ = 0;
};

// One statement's read pins. The first read of a page pins it through the
// pool: one LRU-K access and one hit or miss, as a PageGuard would. Later
// reads of a held page are hits that touch no shared state; they are added
// to the pool's hit counters when the set releases, under the same single
// mutex acquisition that drops its pins, so hits + misses still equal page
// reads. At most kMaxHeld pages are held: reading one more unpins the
// oldest, so a bounded pool over-admits by at most kMaxHeld frames per open
// set. Not thread-safe; each statement owns its set.
class PagePins {
 public:
  static constexpr size_t kMaxHeld = 16;

  PagePins() = default;
  PagePins(const PagePins&) = delete;
  PagePins& operator=(const PagePins&) = delete;
  ~PagePins() { Release(); }

  // Records one read of page (owner, page_no) of `pool`; a null pool (a
  // table without one) records nothing.
  void Pin(BufferPool* pool, uint32_t owner, int32_t page_no);

  // Unpins every held page and publishes the deferred hits.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint64_t keys_[kMaxHeld] = {};
  size_t held_ = 0;
  size_t oldest_ = 0;  // slot the next pin replaces once the set is full
  size_t last_ = 0;    // slot of the most recently read page
  int64_t rereads_ = 0;
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t resident = 0;
  size_t pinned = 0;
};

class BufferPool {
 public:
  static constexpr size_t kUnbounded = static_cast<size_t>(1) << 40;

  explicit BufferPool(size_t capacity_frames = kUnbounded, int k = 2)
      : capacity_(capacity_frames == 0 ? 1 : capacity_frames),
        k_(k < 1 ? 1 : (k > 4 ? 4 : k)) {}

  // Each HeapTable registers once; the uid namespaces its page numbers.
  uint32_t RegisterOwner();

  // Pins page (owner, page_no), recording the access for LRU-K. A miss may
  // evict; the returned guard unpins on destruction. `was_miss` (optional)
  // reports whether the page had to be admitted.
  PageGuard Pin(uint32_t owner, int32_t page_no, bool* was_miss = nullptr);

  // Shrinking the capacity evicts lazily, on subsequent pins.
  void set_capacity(size_t frames);
  size_t capacity() const;

  BufferPoolStats stats() const;

  bool Resident(uint32_t owner, int32_t page_no) const;

 private:
  friend class PageGuard;
  friend class PagePins;

  struct Frame {
    int pin_count = 0;
    uint64_t accesses = 0;     // total accesses to this frame
    uint64_t history[4] = {};  // last k access stamps, ring buffer (k <= 4)
  };

  static uint64_t Key(uint32_t owner, int32_t page_no) {
    return (static_cast<uint64_t>(owner) << 32) |
           static_cast<uint32_t>(page_no);
  }

  // Pins the frame of `key`, admitting it on a miss; true on a miss.
  bool PinKey(uint64_t key);
  void Unpin(uint64_t key);
  // Drops one pin on each of `keys` and counts `rereads` hits, under one
  // acquisition of the mutex.
  void UnpinAll(const uint64_t* keys, size_t n, int64_t rereads);
  void EvictLocked();  // evict one victim, if any is evictable

  mutable std::mutex mu_;
  size_t capacity_;
  int k_;
  uint32_t next_owner_ = 1;
  uint64_t clock_ = 0;
  std::unordered_map<uint64_t, Frame> frames_;
  BufferPoolStats stats_;
};

}  // namespace irdb
