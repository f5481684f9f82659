// Crash recovery from the write-ahead log.
//
// The paper's framework assumes the DBMS's standard WAL recovery underneath
// ("standard recovery mechanisms in modern DBMSs are designed to recover
// from hardware failures"); this module is that substrate. ARIES-style:
//
//   1. rebuild the catalog from kDdl records;
//   2. REDO every row operation — of every transaction, including aborted
//      ones and their compensation records — in log order. Replayed inserts
//      deterministically land at the logged (page, offset), so the physical
//      page layout (and thus the §4.3 Sybase addressing) is reproduced
//      byte-exactly;
//   3. UNDO losers — transactions with neither COMMIT nor ABORT in the log —
//      newest-first, locating each affected row by adjusting the logged
//      offset across later same-page deletes (the §4.3 movement rule).
//
// Loser undo assumes a serial workload shape: a loser's rows were not
// concurrently deleted-and-rolled-back by other in-flight transactions
// (full ARIES page-LSN tracking is out of scope).
//
// Recovery reads the crashed instance's log without appending to any log:
// the recovered database begins a fresh WAL that holds only the catalog DDL
// it replays, with transaction/rowid/identity counters advanced past every
// recovered value.
#pragma once

#include <memory>
#include <string_view>

#include "engine/database.h"
#include "util/status.h"

namespace irdb {

// Builds a fresh Database holding exactly the state the crashed instance's
// log describes. `traits` must match the crashed instance's flavor.
Result<std::unique_ptr<Database>> RecoverDatabase(const WalLog& wal,
                                                  const FlavorTraits& traits);

struct WalRecoveryInfo {
  int64_t records_recovered = 0;
  bool truncated_tail = false;  // a torn final frame was dropped
  int64_t dropped_bytes = 0;
};

// Recovery from the durable byte encoding (txn/wal_codec.h): verifies
// per-record checksums, truncates a torn tail (the interrupted final frame),
// and refuses interior corruption. A record lost to the torn tail belongs to
// a transaction whose COMMIT never became durable, so the standard loser-undo
// pass yields a consistent state.
Result<std::unique_ptr<Database>> RecoverDatabaseFromBytes(
    std::string_view wal_bytes, const FlavorTraits& traits,
    WalRecoveryInfo* info = nullptr);

}  // namespace irdb
