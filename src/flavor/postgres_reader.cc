#include "flavor/postgres_reader.h"

#include <set>

namespace irdb {

Result<std::vector<RepairOp>> PostgresLogReader::ReadCommitted(
    const WalView& log) {
  std::vector<int64_t> committed_list = CommittedTxnIds(log);
  std::set<int64_t> committed(committed_list.begin(), committed_list.end());

  // Candidate records first, so the parallel fan-out balances over real work
  // (row ops of committed txns) rather than commit/abort markers.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < log.size(); ++i) {
    const LogRecord& rec = log[i];
    if (rec.IsRowOp() && committed.count(rec.txn_id)) candidates.push_back(i);
  }

  return ParallelBuild<RepairOp>(
      pool_, candidates.size(),
      [&](size_t k) -> Result<std::optional<RepairOp>> {
        const LogRecord& rec = log[candidates[k]];
        HeapTable* table = db_->catalog().FindById(rec.table_id);
        if (table == nullptr) return std::optional<RepairOp>();  // dropped since
        RepairOp op;
        op.lsn = rec.lsn;
        op.internal_txn_id = rec.txn_id;
        op.op = rec.op;
        op.table = table->name();
        IRDB_RETURN_IF_ERROR(PopulateFromFullImages(
            *db_, *table, rec.before_image, rec.after_image, &op));
        return std::optional<RepairOp>(std::move(op));
      });
}

}  // namespace irdb
