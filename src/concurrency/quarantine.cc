#include "concurrency/quarantine.h"

#include <algorithm>

#include "obs/catalog.h"
#include "obs/metrics.h"

namespace irdb::concurrency {

namespace {

// The modes that read or write every row of a granule, as opposed to the
// intention modes that only announce finer locks.
bool CoversGranule(LockMode m) {
  return m == LockMode::kShared || m == LockMode::kSharedIntentionExclusive ||
         m == LockMode::kExclusive;
}

}  // namespace

Status QuarantineManager::Begin() {
  std::lock_guard<std::mutex> lk(mu_);
  if (active_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "online repair already in progress: quarantine is held");
  }
  tables_.clear();
  active_.store(true, std::memory_order_release);
  PublishGauge();
  return Status::Ok();
}

int QuarantineManager::Add(const std::vector<QuarantineSlice>& slices) {
  std::lock_guard<std::mutex> lk(mu_);
  int added = 0;
  for (const QuarantineSlice& s : slices) {
    TableSlices& t = tables_[s.table_id()];
    if (s.is_table()) {
      if (!t.whole_table) {
        // The whole table subsumes any key already registered for it.
        t.whole_table = true;
        t.keys.clear();
        t.ancestors.clear();
        ++added;
      }
      continue;
    }
    if (t.whole_table) continue;
    auto [it, fresh] = t.keys.emplace(
        s.path.back(),
        std::vector<ResourceId>(s.path.begin() + 1, s.path.end() - 1));
    if (!fresh) continue;
    for (const ResourceId& prefix : it->second) ++t.ancestors[prefix];
    ++added;
  }
  installed_total_ += added;
  PublishGauge();
  return added;
}

int QuarantineManager::ReleaseTable(int32_t table_id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tables_.find(table_id);
  if (it == tables_.end()) return 0;
  const int released = it->second.whole_table
                           ? 1
                           : static_cast<int>(it->second.keys.size());
  tables_.erase(it);
  released_total_ += released;
  PublishGauge();
  return released;
}

int QuarantineManager::ReleaseKey(const ResourceId& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tables_.find(key.table_id);
  if (it == tables_.end() || it->second.whole_table) return 0;
  TableSlices& t = it->second;
  auto k = t.keys.find(key);
  if (k == t.keys.end()) return 0;
  for (const ResourceId& prefix : k->second) {
    auto a = t.ancestors.find(prefix);
    if (--a->second == 0) t.ancestors.erase(a);
  }
  t.keys.erase(k);
  if (t.keys.empty()) tables_.erase(it);
  released_total_ += 1;
  PublishGauge();
  return 1;
}

void QuarantineManager::End() {
  std::lock_guard<std::mutex> lk(mu_);
  released_total_ += CountLocked();
  tables_.clear();
  active_.store(false, std::memory_order_release);
  PublishGauge();
}

bool QuarantineManager::Blocks(const ResourceId& res, LockMode mode) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tables_.find(res.table_id);
  if (it == tables_.end()) return false;
  const TableSlices& t = it->second;
  if (t.whole_table) return true;
  switch (res.level) {
    case LockLevel::kTable:
      // S/SIX/X on the table read or write every row, fenced keys
      // included; intention modes name their finer granules separately
      // and are judged there.
      return CoversGranule(mode);
    case LockLevel::kPrefix:
      // Same rule one level down: only a granule enclosing a fenced key
      // conflicts, so sibling prefixes stay available.
      return CoversGranule(mode) && t.ancestors.count(res) > 0;
    case LockLevel::kKey:
      return t.keys.count(res) > 0;
  }
  return false;
}

bool QuarantineManager::HoldsOverlapping(const LockManager& lm,
                                         int64_t txn_id) const {
  // Snapshot the probes, then query the lock manager without holding mu_
  // (the lock manager has its own mutex; never nest the two).
  std::vector<std::pair<ResourceId, LockMode>> probes;  // (resource, floor)
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [table_id, t] : tables_) {
      // Any held mode overlaps a whole-table slice; for a key-sliced table
      // only a granule-covering mode on the table or on an enclosing prefix
      // does — intention holders are checked via their finer locks.
      probes.emplace_back(ResourceId::Table(table_id),
                          t.whole_table ? LockMode::kIntentionShared
                                        : LockMode::kShared);
      for (const auto& a : t.ancestors) {
        probes.emplace_back(a.first, LockMode::kShared);
      }
      for (const auto& k : t.keys) {
        probes.emplace_back(k.first, LockMode::kShared);
      }
    }
  }
  for (const auto& [res, floor] : probes) {
    if (lm.holds(txn_id, res, floor)) return true;
  }
  return false;
}

std::vector<std::pair<ResourceId, LockMode>> QuarantineManager::DrainPlan()
    const {
  std::vector<std::pair<ResourceId, LockMode>> plan;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [table_id, t] : tables_) {
      if (t.whole_table) {
        plan.emplace_back(ResourceId::Table(table_id), LockMode::kExclusive);
        continue;
      }
      plan.emplace_back(ResourceId::Table(table_id),
                        LockMode::kIntentionExclusive);
      for (const auto& a : t.ancestors) {
        plan.emplace_back(a.first, LockMode::kIntentionExclusive);
      }
      for (const auto& k : t.keys) {
        plan.emplace_back(k.first, LockMode::kExclusive);
      }
    }
  }
  std::sort(plan.begin(), plan.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return plan;
}

void QuarantineManager::CountReject() {
  rejects_total_.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Metrics::Get().quarantine_rejects);
}

QuarantineStats QuarantineManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  QuarantineStats s;
  s.active = active_.load(std::memory_order_relaxed);
  s.slices = CountLocked();
  s.tables = static_cast<int>(tables_.size());
  s.installed_total = installed_total_;
  s.released_total = released_total_;
  s.rejects_total = rejects_total_.load(std::memory_order_relaxed);
  return s;
}

int QuarantineManager::CountLocked() const {
  int n = 0;
  for (const auto& [id, t] : tables_) {
    n += t.whole_table ? 1 : static_cast<int>(t.keys.size());
  }
  return n;
}

void QuarantineManager::PublishGauge() const {
  obs::SetGauge(obs::Metrics::Get().quarantine_slices, CountLocked());
}

}  // namespace irdb::concurrency
