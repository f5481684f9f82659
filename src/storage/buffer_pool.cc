#include "storage/buffer_pool.h"

#include "obs/catalog.h"

namespace irdb {

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(key_);
    pool_ = nullptr;
  }
}

void PagePins::Pin(BufferPool* pool, uint32_t owner, int32_t page_no) {
  if (pool == nullptr) return;
  IRDB_CHECK_MSG(pool_ == nullptr || pool_ == pool,
                 "a pin set holds pages of one buffer pool");
  pool_ = pool;
  const uint64_t key = BufferPool::Key(owner, page_no);
  if (held_ > 0 && keys_[last_] == key) {
    ++rereads_;
    return;
  }
  for (size_t i = 0; i < held_; ++i) {
    if (keys_[i] == key) {
      last_ = i;
      ++rereads_;
      return;
    }
  }
  size_t slot = held_;
  if (held_ < kMaxHeld) {
    ++held_;
  } else {
    slot = oldest_;
    oldest_ = (oldest_ + 1) % kMaxHeld;
    pool_->Unpin(keys_[slot]);
  }
  pool_->PinKey(key);
  keys_[slot] = key;
  last_ = slot;
}

void PagePins::Release() {
  if (pool_ != nullptr) pool_->UnpinAll(keys_, held_, rereads_);
  pool_ = nullptr;
  held_ = 0;
  oldest_ = 0;
  last_ = 0;
  rereads_ = 0;
}

uint32_t BufferPool::RegisterOwner() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_owner_++;
}

PageGuard BufferPool::Pin(uint32_t owner, int32_t page_no, bool* was_miss) {
  const uint64_t key = Key(owner, page_no);
  const bool miss = PinKey(key);
  if (was_miss != nullptr) *was_miss = miss;
  return PageGuard(this, key);
}

bool BufferPool::PinKey(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t resident_before = frames_.size();
  auto it = frames_.find(key);
  const bool miss = it == frames_.end();
  if (miss) {
    while (frames_.size() >= capacity_) {
      const size_t before = frames_.size();
      EvictLocked();
      if (frames_.size() == before) break;  // everything pinned: over-admit
    }
    it = frames_.emplace(key, Frame{}).first;
    ++stats_.misses;
    obs::Count(obs::Metrics::Get().bufferpool_misses);
  } else {
    ++stats_.hits;
    obs::Count(obs::Metrics::Get().bufferpool_hits);
  }
  Frame& f = it->second;
  // Ring of the last k access stamps; slot (accesses % k) always holds the
  // oldest of them once the ring is full.
  f.history[f.accesses % static_cast<uint64_t>(k_)] = ++clock_;
  ++f.accesses;
  ++f.pin_count;
  if (frames_.size() != resident_before) {
    obs::SetGauge(obs::Metrics::Get().bufferpool_resident,
                  static_cast<int64_t>(frames_.size()));
  }
  return miss;
}

void BufferPool::EvictLocked() {
  // Victim: unpinned frame with the largest backward k-distance. Frames
  // with fewer than k recorded accesses have infinite distance and evict
  // first, ordered by oldest earliest access (classic LRU-K).
  auto victim = frames_.end();
  bool victim_inf = false;
  uint64_t victim_stamp = 0;
  for (auto it = frames_.begin(); it != frames_.end(); ++it) {
    Frame& f = it->second;
    if (f.pin_count > 0) continue;
    const bool inf = f.accesses < static_cast<uint64_t>(k_);
    // Backward k-distance orders by the kth-most-recent stamp — the oldest
    // in the ring, which is the slot the next access would overwrite.
    const uint64_t stamp =
        inf ? f.history[0]
            : f.history[f.accesses % static_cast<uint64_t>(k_)];
    const bool better =
        victim == frames_.end() || (inf && !victim_inf) ||
        (inf == victim_inf && stamp < victim_stamp);
    if (better) {
      victim = it;
      victim_inf = inf;
      victim_stamp = stamp;
    }
  }
  if (victim == frames_.end()) return;
  frames_.erase(victim);
  ++stats_.evictions;
  obs::Count(obs::Metrics::Get().bufferpool_evictions);
}

void BufferPool::Unpin(uint64_t key) { UnpinAll(&key, 1, 0); }

void BufferPool::UnpinAll(const uint64_t* keys, size_t n, int64_t rereads) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      auto it = frames_.find(keys[i]);
      // A missing frame was evicted under over-admission pressure.
      if (it != frames_.end() && it->second.pin_count > 0) {
        --it->second.pin_count;
      }
    }
    stats_.hits += static_cast<uint64_t>(rereads);
  }
  if (rereads > 0) obs::Count(obs::Metrics::Get().bufferpool_hits, rereads);
}

void BufferPool::set_capacity(size_t frames) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = frames == 0 ? 1 : frames;
}

size_t BufferPool::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BufferPoolStats s = stats_;
  s.resident = frames_.size();
  s.pinned = 0;
  for (const auto& [_, f] : frames_) {
    if (f.pin_count > 0) ++s.pinned;
  }
  return s;
}

bool BufferPool::Resident(uint32_t owner, int32_t page_no) const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.count(Key(owner, page_no)) != 0;
}

}  // namespace irdb
