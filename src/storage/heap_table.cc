#include "storage/heap_table.h"

#include "util/string_utils.h"

namespace irdb {

HeapTable::HeapTable(std::string name, Schema schema, int page_size,
                     BufferPool* pool)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      codec_(&schema_),
      page_size_(page_size),
      pool_(pool) {
  IRDB_CHECK_MSG(schema_.row_size() <= page_size_,
                 "row too large for page in table " + name_);
  if (pool_ != nullptr) pool_owner_ = pool_->RegisterOwner();
}

std::vector<Value> HeapTable::IndexKeyOf(const TableIndex& index,
                                         std::string_view row_bytes) const {
  std::vector<Value> key;
  key.reserve(index.key_columns().size());
  for (int col : index.key_columns()) {
    auto v = codec_.DecodeColumn(row_bytes, static_cast<size_t>(col));
    IRDB_CHECK(v.ok());
    key.push_back(std::move(v).value());
  }
  return key;
}

PageGuard HeapTable::PinPage(int page_no) const {
  if (pool_ == nullptr) return PageGuard();
  return pool_->Pin(pool_owner_, page_no);
}

RowLoc HeapTable::Insert(std::string_view row_bytes) {
  RowLoc loc;
  if (!free_pages_.empty()) {
    // Deterministic placement: lowest page with space; the page picks its
    // lowest dead slot.
    const int32_t p = *free_pages_.begin();
    const int off = pages_[p]->Insert(row_bytes);
    if (!pages_[p]->HasSpace()) free_pages_.erase(free_pages_.begin());
    loc = RowLoc{p, off / schema_.row_size()};
  } else {
    pages_.push_back(std::make_unique<Page>(page_size_, schema_.row_size()));
    const int32_t p = static_cast<int32_t>(pages_.size()) - 1;
    const int off = pages_[p]->Insert(row_bytes);
    if (pages_[p]->HasSpace()) free_pages_.insert(p);
    loc = RowLoc{p, off / schema_.row_size()};
  }
  PageGuard guard = PinPage(loc.page);
  ++row_count_;
  if (index_) index_->Insert(IndexKeyOf(*index_, row_bytes), loc);
  for (const auto& sec : secondary_indexes_) {
    sec->Insert(IndexKeyOf(*sec, row_bytes), loc);
  }
  return loc;
}

std::string_view HeapTable::ReadAt(RowLoc loc, PagePins* pins) const {
  IRDB_CHECK(loc.page >= 0 && loc.page < page_count());
  return GetPage(loc.page, pins)->RowAt(loc.slot);
}

void HeapTable::UpdateAt(RowLoc loc, std::string_view row_bytes) {
  IRDB_CHECK(loc.page >= 0 && loc.page < page_count());
  PageGuard guard = PinPage(loc.page);
  std::string_view old_bytes = pages_[loc.page]->RowAt(loc.slot);
  auto reindex = [&](TableIndex* idx) {
    std::vector<Value> old_key = IndexKeyOf(*idx, old_bytes);
    std::vector<Value> new_key = IndexKeyOf(*idx, row_bytes);
    if (EncodeKey(old_key) != EncodeKey(new_key)) {
      idx->Erase(old_key, loc);
      idx->Insert(new_key, loc);
    }
  };
  if (index_) reindex(index_.get());
  for (const auto& sec : secondary_indexes_) reindex(sec.get());
  pages_[loc.page]->UpdateAt(loc.slot, row_bytes);
}

void HeapTable::DeleteAt(RowLoc loc) {
  IRDB_CHECK(loc.page >= 0 && loc.page < page_count());
  PageGuard guard = PinPage(loc.page);
  Page& page = *pages_[loc.page];
  std::string_view bytes = page.RowAt(loc.slot);
  if (index_) index_->Erase(IndexKeyOf(*index_, bytes), loc);
  for (const auto& sec : secondary_indexes_) {
    sec->Erase(IndexKeyOf(*sec, bytes), loc);
  }
  page.DeleteAt(loc.slot);
  --row_count_;
  free_pages_.insert(loc.page);
}

void HeapTable::Scan(
    const std::function<void(RowLoc, std::string_view)>& fn) const {
  for (int p = 0; p < page_count(); ++p) {
    PageGuard guard = PinPage(p);
    const Page& page = *pages_[p];
    for (int s = 0; s < page.slot_count(); ++s) {
      if (!page.SlotLive(s)) continue;
      fn(RowLoc{p, s}, page.RowAt(s));
    }
  }
}

const Page* HeapTable::GetPage(int page_no, PagePins* pins) const {
  if (page_no < 0 || page_no >= page_count()) return nullptr;
  if (pins != nullptr) {
    pins->Pin(pool_, pool_owner_, page_no);
  } else {
    PinPage(page_no);  // the guard unpins at once
  }
  return pages_[page_no].get();
}

Status HeapTable::AddSecondaryIndex(const std::string& name,
                                    std::vector<int> key_columns) {
  if (FindSecondaryIndex(name) != nullptr) {
    return Status::AlreadyExists("index " + name + " already exists");
  }
  auto idx = std::make_unique<TableIndex>(std::move(key_columns), name);
  Scan([&](RowLoc loc, std::string_view bytes) {
    idx->Insert(IndexKeyOf(*idx, bytes), loc);
  });
  secondary_indexes_.push_back(std::move(idx));
  return Status::Ok();
}

bool HeapTable::DropSecondaryIndex(const std::string& name) {
  for (size_t i = 0; i < secondary_indexes_.size(); ++i) {
    if (EqualsIgnoreCase(secondary_indexes_[i]->name(), name)) {
      secondary_indexes_.erase(secondary_indexes_.begin() +
                               static_cast<ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

const TableIndex* HeapTable::FindSecondaryIndex(const std::string& name) const {
  for (const auto& sec : secondary_indexes_) {
    if (EqualsIgnoreCase(sec->name(), name)) return sec.get();
  }
  return nullptr;
}

}  // namespace irdb
