// FlavorLogReader: vendor-specific transaction-log access (§4).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/database.h"
#include "flavor/repair_op.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace irdb {

class FlavorLogReader {
 public:
  explicit FlavorLogReader(Database* db) : db_(db) {}
  virtual ~FlavorLogReader() = default;

  // Reconstructs every row operation of every *committed* transaction in
  // `log`, in log order. `log` is a snapshot of the engine's WAL, scanned in
  // place while the engine may keep appending past it. Must be called
  // before any compensating statement runs (the Sybase path reads live
  // pages).
  virtual Result<std::vector<RepairOp>> ReadCommitted(const WalView& log) = 0;

  // The same over a snapshot of everything logged so far.
  Result<std::vector<RepairOp>> ReadCommitted() {
    return ReadCommitted(db_->wal().records());
  }

  virtual std::string name() const = 0;

  // Parallel scan plumbing (DESIGN.md §5c). A null pool keeps the original
  // serial code path; with a pool, readers fan the per-record image
  // decoding out in contiguous log segments stitched back in LSN order.
  void set_pool(util::ThreadPool* pool) { pool_ = pool; }

 protected:
  Database* db_;
  util::ThreadPool* pool_ = nullptr;
};

// Creates the reader matching `db`'s flavor.
std::unique_ptr<FlavorLogReader> MakeLogReader(Database* db);

// Shared helpers for readers --------------------------------------------

// Internal txn ids that have a kCommit record in `log`.
std::vector<int64_t> CommittedTxnIds(const WalView& log);

// Runs `build(i)` for i in [0, n) and collects the non-nullopt results in
// index order. With a multi-lane pool the calls fan out in contiguous
// chunks (ThreadPool::SplitRange) with per-chunk error slots; the stitch
// preserves index order and the lowest-index error wins, so the output —
// values, order, and error — is identical to the serial loop. `build` must
// be a pure function of its index (concurrent calls share no mutable
// state).
template <typename T>
Result<std::vector<T>> ParallelBuild(
    util::ThreadPool* pool, size_t n,
    const std::function<Result<std::optional<T>>(size_t)>& build) {
  std::vector<T> out;
  if (pool == nullptr || pool->lanes() <= 1 || n < 2) {
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      IRDB_ASSIGN_OR_RETURN(std::optional<T> item, build(i));
      if (item.has_value()) out.push_back(std::move(*item));
    }
    return out;
  }
  std::vector<std::optional<T>> slots(n);
  const size_t nchunks =
      util::ThreadPool::SplitRange(static_cast<int64_t>(n), pool->lanes())
          .size();
  std::vector<Status> chunk_status(nchunks, Status::Ok());
  std::vector<size_t> chunk_bad(nchunks, n);
  pool->ParallelFor(static_cast<int64_t>(n),
                    [&](int64_t begin, int64_t end, int chunk) {
                      for (int64_t i = begin; i < end; ++i) {
                        auto item = build(static_cast<size_t>(i));
                        if (!item.ok()) {
                          chunk_status[chunk] = item.status();
                          chunk_bad[chunk] = static_cast<size_t>(i);
                          return;
                        }
                        slots[static_cast<size_t>(i)] = std::move(item).value();
                      }
                    });
  size_t first_bad = n;
  Status first_status = Status::Ok();
  for (size_t c = 0; c < nchunks; ++c) {
    if (!chunk_status[c].ok() && chunk_bad[c] < first_bad) {
      first_bad = chunk_bad[c];
      first_status = chunk_status[c];
    }
  }
  if (first_bad < n) return first_status;
  for (std::optional<T>& slot : slots) {
    if (slot.has_value()) out.push_back(std::move(*slot));
  }
  return out;
}

// Decodes an encoded full row into (column name, value) pairs and pulls out
// the row address / before_trid / trans_dep fields shared by all flavors.
// `image_is_before` selects which image the address is read from.
Status PopulateFromFullImages(const Database& db, const HeapTable& table,
                              const std::string& before_image,
                              const std::string& after_image, RepairOp* op);

}  // namespace irdb
