// Durable byte encoding of the WAL, with per-record checksums.
//
// On-disk layout: a flat sequence of frames, one per LogRecord:
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// All integers are little-endian fixed width; strings are u32-length-prefixed.
// The checksum covers the payload only, so a torn write (power cut mid-frame)
// is detected either by a short final frame or by a CRC mismatch on the last
// frame. Decoding policy mirrors real WAL recovery:
//
//   - incomplete or checksum-failing FINAL frame  -> torn tail: truncate it
//     and recover from the intact prefix (the lost record belongs to a
//     transaction whose COMMIT never made it durable, so undo handles it);
//   - checksum mismatch on an INTERIOR frame      -> corruption, hard error
//     (truncating the middle of a log is never sound).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "txn/wal_log.h"
#include "util/status.h"

namespace irdb {

// CRC-32 (IEEE 802.3 polynomial, bit-reflected), table-driven.
uint32_t Crc32(std::string_view bytes);

// Serializes a snapshot of the log: every record appended before the call.
// Failpoint "wal.serialize.torn": when triggered, tears the tail by dropping
// 1..(last frame size - 1) trailing bytes, simulating a crash mid-way
// through the final frame's write.
std::string SerializeWal(const WalLog& wal);

struct WalDecodeResult {
  std::vector<LogRecord> records;
  bool truncated_tail = false;  // a torn final frame was dropped
  int64_t dropped_bytes = 0;    // size of the dropped tail, in bytes
};

// Decodes frames back into records, applying the torn-tail policy above.
Result<WalDecodeResult> DecodeWal(std::string_view bytes);

}  // namespace irdb
