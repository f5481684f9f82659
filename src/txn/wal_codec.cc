#include "txn/wal_codec.h"

#include <array>

#include "obs/catalog.h"
#include "obs/journal.h"
#include "util/failpoint.h"

namespace irdb {

namespace {

// Every detected torn tail is reported here, so the counter and the
// journal agree.
void NoteTornTail(int64_t dropped_bytes) {
  obs::Count(obs::Metrics::Get().wal_torn_tails);
  obs::EventJournal::Default().Append(
      obs::event::kWalTornTail,
      {{"dropped_bytes", std::to_string(dropped_bytes)}});
}

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

// Bounded little-endian reader over a payload slice.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return false;
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool ReadI32(int32_t* v) {
    uint32_t u = 0;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (pos_ + len > bytes_.size()) return false;
    s->assign(bytes_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

std::string EncodePayload(const LogRecord& rec) {
  std::string p;
  PutU64(static_cast<uint64_t>(rec.lsn), &p);
  PutU64(static_cast<uint64_t>(rec.txn_id), &p);
  PutU8(static_cast<uint8_t>(rec.op), &p);
  PutU8(rec.is_clr ? 1 : 0, &p);
  PutI32(rec.table_id, &p);
  PutI32(rec.page, &p);
  PutI32(rec.offset, &p);
  PutI32(rec.len, &p);
  PutString(rec.before_image, &p);
  PutString(rec.after_image, &p);
  PutString(rec.ddl_text, &p);
  PutU32(static_cast<uint32_t>(rec.diff.size()), &p);
  for (const ColumnDiff& d : rec.diff) {
    PutI32(d.column, &p);
    PutString(d.before, &p);
    PutString(d.after, &p);
  }
  return p;
}

Result<LogRecord> DecodePayload(std::string_view payload) {
  Reader r(payload);
  LogRecord rec;
  uint64_t lsn = 0, txn_id = 0;
  uint8_t op = 0, is_clr = 0;
  uint32_t diff_count = 0;
  bool ok = r.ReadU64(&lsn) && r.ReadU64(&txn_id) && r.ReadU8(&op) &&
            r.ReadU8(&is_clr) && r.ReadI32(&rec.table_id) &&
            r.ReadI32(&rec.page) && r.ReadI32(&rec.offset) &&
            r.ReadI32(&rec.len) && r.ReadString(&rec.before_image) &&
            r.ReadString(&rec.after_image) && r.ReadString(&rec.ddl_text) &&
            r.ReadU32(&diff_count);
  if (!ok || op > static_cast<uint8_t>(LogOp::kDdl)) {
    return Status::Internal("WAL payload malformed");
  }
  rec.lsn = static_cast<int64_t>(lsn);
  rec.txn_id = static_cast<int64_t>(txn_id);
  rec.op = static_cast<LogOp>(op);
  rec.is_clr = is_clr != 0;
  rec.diff.resize(diff_count);
  for (ColumnDiff& d : rec.diff) {
    if (!r.ReadI32(&d.column) || !r.ReadString(&d.before) ||
        !r.ReadString(&d.after)) {
      return Status::Internal("WAL payload malformed (diff)");
    }
  }
  if (!r.AtEnd()) return Status::Internal("WAL payload has trailing bytes");
  return rec;
}

// Appends one framed record to `out`.
void AppendWalFrame(const LogRecord& rec, std::string* out) {
  const std::string payload = EncodePayload(rec);
  PutU32(static_cast<uint32_t>(payload.size()), out);
  PutU32(Crc32(payload), out);
  out->append(payload);
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t c = 0xffffffffu;
  for (char ch : bytes) {
    c = kTable[(c ^ static_cast<uint8_t>(ch)) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string SerializeWal(const WalLog& wal) {
  std::string out;
  size_t last_frame_start = 0;
  for (const LogRecord& rec : wal.records()) {
    last_frame_start = out.size();
    AppendWalFrame(rec, &out);
  }
  if (!out.empty() && fail::Triggered("wal.serialize.torn")) {
    // Tear off 1..(last frame size - 1) bytes: the final frame's write was
    // interrupted. At least one byte of the frame survives, so the decoder
    // must detect it by length or checksum, never by absence.
    const size_t last_frame_size = out.size() - last_frame_start;
    if (last_frame_size > 1) {
      const size_t drop =
          1 + static_cast<size_t>(fail::Registry::Instance().NextRandom() %
                                  (last_frame_size - 1));
      out.resize(out.size() - drop);
    }
  }
  return out;
}

Result<WalDecodeResult> DecodeWal(std::string_view bytes) {
  WalDecodeResult result;
  size_t pos = 0;
  while (pos < bytes.size()) {
    const size_t remaining = bytes.size() - pos;
    uint32_t len = 0, crc = 0;
    if (remaining >= 8) {
      Reader header(bytes.substr(pos, 8));
      header.ReadU32(&len);
      header.ReadU32(&crc);
    }
    if (remaining < 8 || remaining < 8 + static_cast<size_t>(len)) {
      // Short final frame: torn tail.
      result.truncated_tail = true;
      result.dropped_bytes = static_cast<int64_t>(remaining);
      NoteTornTail(result.dropped_bytes);
      return result;
    }
    const std::string_view payload = bytes.substr(pos + 8, len);
    if (Crc32(payload) != crc) {
      if (pos + 8 + len == bytes.size()) {
        // Checksum-failing final frame: torn tail (partially overwritten).
        result.truncated_tail = true;
        result.dropped_bytes = static_cast<int64_t>(remaining);
        NoteTornTail(result.dropped_bytes);
        return result;
      }
      return Status::Internal(
          "WAL corruption: checksum mismatch on interior record " +
          std::to_string(result.records.size()));
    }
    IRDB_ASSIGN_OR_RETURN(LogRecord rec, DecodePayload(payload));
    result.records.push_back(std::move(rec));
    pos += 8 + len;
  }
  return result;
}

}  // namespace irdb
