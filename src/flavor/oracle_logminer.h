// Oracle-flavor log access (§4.1).
//
// Oracle exposes the binary redo log through LogMiner: a relational view
// v$logmnr_contents with one row per log entry, carrying ready-made
// `sql_redo` / `sql_undo` statements addressed by ROWID. We reproduce both
// halves faithfully:
//   1. BuildLogMinerView() converts the raw log into LogMinerRow entries,
//      synthesizing redo/undo SQL text exactly as LogMiner renders it;
//   2. OracleLogReader parses those SQL strings back (with the framework's
//      own parser) into normalized RepairOps — the repair tool never touches
//      the binary log, only the view, matching the paper's prototype.
#pragma once

#include "flavor/log_reader.h"

namespace irdb {

struct LogMinerRow {
  int64_t scn = 0;           // system change number (our LSN)
  int64_t xid = 0;           // internal transaction id
  std::string operation;     // "INSERT" / "DELETE" / "UPDATE"
  std::string table_name;
  std::string sql_redo;
  std::string sql_undo;
};

// Emulates DBMS_LOGMNR over `log`, a snapshot of db's WAL: committed
// transactions only, log order. A multi-lane `pool` fans the per-record
// redo/undo SQL rendering out in contiguous log segments, stitched back in
// SCN order.
Result<std::vector<LogMinerRow>> BuildLogMinerView(
    Database* db, const WalView& log, util::ThreadPool* pool = nullptr);

class OracleLogReader : public FlavorLogReader {
 public:
  using FlavorLogReader::FlavorLogReader;
  using FlavorLogReader::ReadCommitted;

  Result<std::vector<RepairOp>> ReadCommitted(const WalView& log) override;

  std::string name() const override { return "oracle-logminer"; }
};

}  // namespace irdb
