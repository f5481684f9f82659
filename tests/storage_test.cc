// Storage-layer tests: values, row codec, tombstone-page semantics, the
// B+ tree (property-tested against a std::multimap oracle), the buffer
// pool's LRU-K eviction and statement-held pins, heap tables with
// primary/secondary indexes, and the catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "obs/catalog.h"
#include "obs/metrics.h"

#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/heap_table.h"
#include "storage/page.h"
#include "storage/row_codec.h"
#include "storage/schema.h"
#include "util/rng.h"

namespace irdb {
namespace {

Schema TestSchema(bool rowid = true) {
  std::vector<Column> cols;
  cols.push_back({"k", ValueType::kInt, 0, true, false});
  cols.push_back({"s", ValueType::kString, 8, false, false});
  cols.push_back({"d", ValueType::kDouble, 0, false, false});
  return Schema(std::move(cols), rowid);
}

// The order-preserving encoding of a composite key.
std::string Encoded(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) AppendEncodedKeyValue(v, &out);
  return out;
}

// Every value stored under exactly `key`, in tree order.
std::vector<uint64_t> ValuesAt(const BPTree& tree, std::string_view key) {
  std::vector<uint64_t> out;
  for (BPTree::Cursor c = tree.Seek(key); c.Valid() && c.key() == key;
       c.Next()) {
    out.push_back(c.value());
  }
  return out;
}

// Every entry from the first key >= `lower` to the end, in tree order.
std::vector<std::pair<std::string, uint64_t>> WalkFrom(const BPTree& tree,
                                                       std::string_view lower) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (BPTree::Cursor c = tree.Seek(lower); c.Valid(); c.Next()) {
    out.emplace_back(std::string(c.key()), c.value());
  }
  return out;
}

std::vector<RowLoc> Collect(TableIndex::Range r) {
  std::vector<RowLoc> out;
  for (; r.Valid(); r.Next()) out.push_back(r.loc());
  return out;
}

// Row locations whose key starts with `prefix` (may be the full key).
std::vector<RowLoc> PrefixLocs(const TableIndex& index,
                               const std::vector<Value>& prefix) {
  const std::string p = Encoded(prefix);
  return Collect(index.Scan(p, p));
}

// Row locations whose key starts with `prefix` and whose next key column
// lies in [lo, hi] (an absent bound is unbounded).
std::vector<RowLoc> RangeLocs(const TableIndex& index,
                              const std::vector<Value>& prefix,
                              const std::optional<Value>& lo,
                              const std::optional<Value>& hi) {
  std::string lower = Encoded(prefix);
  std::string upper = lower;
  if (lo.has_value()) AppendEncodedKeyValue(*lo, &lower);
  if (hi.has_value()) AppendEncodedKeyValue(*hi, &upper);
  return Collect(index.Scan(lower, upper));
}

TEST(ValueTest, TotalOrder) {
  EXPECT_LT(Value::Null(), Value::Int(0));
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_EQ(Value::Int(2), Value::Double(2.0));  // numeric cross-compare
  EXPECT_LT(Value::Double(1.5), Value::Int(2));
  EXPECT_LT(Value::Int(5), Value::Str("a"));  // numbers before strings
  EXPECT_LT(Value::Str("a"), Value::Str("b"));
}

TEST(ValueTest, SqlLiteralRoundTripsDoubles) {
  // %.17g must reproduce awkward doubles exactly.
  for (double d : {0.1, 1.0 / 3.0, 123456.789, -2.5e-17, 1e300}) {
    Value v = Value::Double(d);
    std::string lit = v.ToSqlLiteral();
    double back = std::stod(lit);
    EXPECT_EQ(back, d) << lit;
  }
}

TEST(RowCodecTest, EncodeDecodeRoundTrip) {
  Schema schema = TestSchema();
  RowCodec codec(&schema);
  Row row;
  row.values = {Value::Int(42), Value::Str("hi"), Value::Double(2.75)};
  row.rowid = 7;
  auto bytes = codec.Encode(row);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), static_cast<size_t>(schema.row_size()));
  auto back = codec.Decode(*bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->values[0], row.values[0]);
  EXPECT_EQ(back->values[1], row.values[1]);
  EXPECT_EQ(back->values[2], row.values[2]);
  EXPECT_EQ(back->rowid, 7);
}

TEST(RowCodecTest, NullsAndCanonicalEncoding) {
  Schema schema = TestSchema();
  RowCodec codec(&schema);
  Row a, b;
  a.values = {Value::Int(1), Value::Null(), Value::Null()};
  a.rowid = 1;
  b = a;
  auto ea = codec.Encode(a);
  auto eb = codec.Encode(b);
  ASSERT_TRUE(ea.ok() && eb.ok());
  EXPECT_EQ(*ea, *eb);  // byte-identical (payloads zeroed under null flag)
  auto back = codec.Decode(*ea);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->values[1].is_null());
}

TEST(RowCodecTest, PropertyRandomRoundTrip) {
  Schema schema = TestSchema();
  RowCodec codec(&schema);
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    Row row;
    row.values = {
        rng.Bernoulli(0.1) ? Value::Null() : Value::Int(rng.Uniform(-1000, 1000)),
        rng.Bernoulli(0.1) ? Value::Null() : Value::Str(rng.AlnumString(0, 8)),
        rng.Bernoulli(0.1) ? Value::Null()
                           : Value::Double(rng.UniformReal(-1e6, 1e6))};
    row.rowid = static_cast<int64_t>(rng.Next() % 100000);
    auto bytes = codec.Encode(row);
    ASSERT_TRUE(bytes.ok());
    auto back = codec.Decode(*bytes);
    ASSERT_TRUE(back.ok());
    for (int c = 0; c < 3; ++c) EXPECT_EQ(back->values[c], row.values[c]);
    EXPECT_EQ(back->rowid, row.rowid);
  }
}

TEST(RowCodecTest, InPlaceColumnPatch) {
  Schema schema = TestSchema();
  RowCodec codec(&schema);
  Row row;
  row.values = {Value::Int(1), Value::Str("abc"), Value::Double(1.0)};
  row.rowid = 3;
  auto bytes = codec.Encode(row).value();
  ASSERT_TRUE(codec.EncodeColumnInPlace(&bytes, 1, Value::Str("xy")).ok());
  auto back = codec.Decode(bytes).value();
  EXPECT_EQ(back.values[1].as_string(), "xy");
  EXPECT_EQ(back.values[0].as_int(), 1);  // neighbours untouched
  EXPECT_EQ(back.rowid, 3);
}

TEST(SchemaTest, CoercionRules) {
  Schema schema = TestSchema();
  EXPECT_TRUE(schema.CoerceForColumn(0, Value::Int(1)).ok());
  // double -> int truncates
  EXPECT_EQ(schema.CoerceForColumn(0, Value::Double(2.9))->as_int(), 2);
  // int -> double widens
  EXPECT_TRUE(schema.CoerceForColumn(2, Value::Int(5))->is_double());
  // NOT NULL enforced
  EXPECT_FALSE(schema.CoerceForColumn(0, Value::Null()).ok());
  // string length enforced
  EXPECT_FALSE(schema.CoerceForColumn(1, Value::Str("way too long")).ok());
  // type mismatch
  EXPECT_FALSE(schema.CoerceForColumn(0, Value::Str("x")).ok());
  // a double outside int64's range, or non-finite, is refused, not wrapped
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double d : {1e30, -1e30, 0x1p63, -0x1p64, kInf, -kInf,
                   std::numeric_limits<double>::quiet_NaN()}) {
    auto r = schema.CoerceForColumn(0, Value::Double(d));
    ASSERT_FALSE(r.ok()) << d;
    EXPECT_EQ(r.status().code(), StatusCode::kConstraint) << d;
    EXPECT_NE(r.status().message().find("out of range for INTEGER"),
              std::string::npos);
  }
  // the range's edges still convert
  EXPECT_EQ(schema.CoerceForColumn(0, Value::Double(-0x1p63))->as_int(),
            INT64_MIN);
  EXPECT_EQ(schema.CoerceForColumn(0, Value::Double(0x1p62))->as_int(),
            int64_t{1} << 62);
  EXPECT_EQ(schema.CoerceForColumn(0, Value::Double(-0.9))->as_int(), 0);
}

// --- key encoding --------------------------------------------------------

TEST(KeyEncodingTest, ByteOrderMatchesValueCompare) {
  // Within a column type, memcmp on encodings must agree with Value::Compare.
  std::vector<Value> ints;
  for (int64_t v : {INT64_MIN, int64_t{-5}, int64_t{-1}, int64_t{0},
                    int64_t{1}, int64_t{42}, INT64_MAX}) {
    ints.push_back(Value::Int(v));
  }
  std::vector<Value> doubles;
  for (double v : {-1e300, -2.5, -0.0, 0.0, 1e-30, 3.25, 1e300}) {
    doubles.push_back(Value::Double(v));
  }
  std::vector<Value> strings;
  for (const char* v : {"", "a", "ab", "b", "ba"}) {
    strings.push_back(Value::Str(v));
  }
  strings.push_back(Value::Str(std::string("a\0b", 3)));  // embedded NUL
  for (const auto& group : {ints, doubles, strings}) {
    for (const Value& a : group) {
      for (const Value& b : group) {
        std::string ea, eb;
        AppendEncodedKeyValue(a, &ea);
        AppendEncodedKeyValue(b, &eb);
        const int vc = a.Compare(b);
        const int bc = ea.compare(eb);
        EXPECT_EQ(vc < 0, bc < 0) << a.ToSqlLiteral() << " vs " << b.ToSqlLiteral();
        EXPECT_EQ(vc == 0, bc == 0) << a.ToSqlLiteral() << " vs " << b.ToSqlLiteral();
      }
    }
  }
  // NULL sorts before everything, and prefix encodings are proper prefixes.
  std::string null_enc;
  AppendEncodedKeyValue(Value::Null(), &null_enc);
  std::string one;
  AppendEncodedKeyValue(Value::Int(1), &one);
  EXPECT_LT(null_enc, one);
  std::string composite = Encoded({Value::Int(1), Value::Str("x")});
  EXPECT_EQ(composite.compare(0, one.size(), one), 0);
}

// --- B+ tree -------------------------------------------------------------

TEST(BPTreeTest, InsertLookupEraseSmall) {
  BPTree tree;
  EXPECT_TRUE(tree.empty());
  tree.Insert("b", 2);
  tree.Insert("a", 1);
  tree.Insert("c", 3);
  tree.Insert("b", 22);  // duplicate key, distinct value
  EXPECT_EQ(tree.size(), 4u);
  std::vector<uint64_t> vals = ValuesAt(tree, "b");
  std::sort(vals.begin(), vals.end());
  EXPECT_EQ(vals, (std::vector<uint64_t>{2, 22}));
  EXPECT_TRUE(tree.Erase("b", 2));
  EXPECT_FALSE(tree.Erase("b", 2));  // already gone
  EXPECT_FALSE(tree.Erase("zzz", 0));
  vals = ValuesAt(tree, "b");
  EXPECT_EQ(vals, (std::vector<uint64_t>{22}));
  BPTree::Cursor first = tree.Seek("a");
  ASSERT_TRUE(first.Valid());
  EXPECT_EQ(first.key(), "a");
  EXPECT_EQ(first.value(), 1u);
  EXPECT_TRUE(ValuesAt(tree, "nope").empty());
}

// Seeks `lower` and walks on, matching each (key, value) against the
// oracle's iteration from lower_bound(lower): duplicates in insertion order
// on both sides. Stops after `limit` entries, or checks that both run out.
void ExpectSeekMatchesOracle(const BPTree& tree,
                             const std::multimap<std::string, uint64_t>& oracle,
                             const std::string& lower,
                             size_t limit = SIZE_MAX) {
  auto want = oracle.lower_bound(lower);
  BPTree::Cursor c = tree.Seek(lower);
  for (size_t n = 0; n < limit; ++n, c.Next(), ++want) {
    if (want == oracle.end()) {
      EXPECT_FALSE(c.Valid()) << "seek " << lower << ": tree runs past oracle";
      return;
    }
    ASSERT_TRUE(c.Valid()) << "seek " << lower << ": tree ends at entry " << n;
    ASSERT_EQ(c.key(), want->first) << "seek " << lower << " entry " << n;
    ASSERT_EQ(c.value(), want->second) << "seek " << lower << " entry " << n;
  }
}

TEST(BPTreeTest, PropertyAgainstMultimapOracle) {
  BPTree tree;
  std::multimap<std::string, uint64_t> oracle;
  Rng rng(4242);
  for (int step = 0; step < 20000; ++step) {
    const std::string key = rng.AlnumString(1, 6);
    const int action = rng.Uniform(0, 9);
    if (action < 6) {
      const uint64_t value = rng.Next() % 1000;
      tree.Insert(key, value);
      oracle.emplace(key, value);
    } else if (action < 8) {
      // Erase one specific (key, value) if the oracle has any entry.
      auto it = oracle.lower_bound(key);
      const bool present = it != oracle.end() && it->first == key;
      if (present) {
        EXPECT_TRUE(tree.Erase(it->first, it->second));
        oracle.erase(it);
      } else {
        EXPECT_FALSE(tree.Erase(key, 0));
      }
    } else {
      std::vector<uint64_t> got = ValuesAt(tree, key);
      std::vector<uint64_t> want;
      auto [lo, hi] = oracle.equal_range(key);
      for (auto i = lo; i != hi; ++i) want.push_back(i->second);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "step " << step << " key " << key;
      // A seek at a random key walks across leaf boundaries in step.
      ExpectSeekMatchesOracle(tree, oracle, rng.AlnumString(0, 6), 150);
    }
    ASSERT_EQ(tree.size(), oracle.size());
  }
  // Full ordered iteration must match the oracle exactly.
  std::vector<std::pair<std::string, uint64_t>> walked = WalkFrom(tree, "");
  ASSERT_EQ(walked.size(), oracle.size());
  size_t i = 0;
  for (const auto& [k, v] : oracle) {
    EXPECT_EQ(walked[i].first, k);
    EXPECT_EQ(walked[i].second, v);
    ++i;
  }
  ExpectSeekMatchesOracle(tree, oracle, "");
  ExpectSeekMatchesOracle(tree, oracle, "zzzzzzz");  // past the largest key
  EXPECT_FALSE(tree.Seek("zzzzzzz").Valid());

  // Runs of more than 64 duplicates span several leaves; a seek at the key,
  // or just below it, must start at the run's first entry.
  for (int i = 0; i < 300; ++i) {
    const std::string key = i % 3 == 0 ? "M" : "M" + rng.AlnumString(1, 3);
    tree.Insert(key, static_cast<uint64_t>(i));
    oracle.emplace(key, static_cast<uint64_t>(i));
  }
  ASSERT_GT(oracle.count("M"), 64u);
  for (const char* lower : {"M", "L", "Lzzzzz", "M0"}) {
    ExpectSeekMatchesOracle(tree, oracle, lower);
  }

  // Erasing every key of a range empties whole leaves; a seek into the
  // emptied range must skip them to the next live entry.
  for (auto it = oracle.lower_bound("b"); it != oracle.lower_bound("e");) {
    ASSERT_TRUE(tree.Erase(it->first, it->second));
    it = oracle.erase(it);
  }
  ASSERT_EQ(tree.size(), oracle.size());
  for (const char* lower : {"b", "c", "czz", "d"}) {
    ExpectSeekMatchesOracle(tree, oracle, lower);
  }
}

TEST(BPTreeTest, SeekOnEmptyTree) {
  BPTree tree;
  EXPECT_FALSE(tree.Seek("").Valid());
  EXPECT_FALSE(tree.Seek("a").Valid());
  // A tree emptied by Erase keeps its (now empty) root leaf.
  for (uint64_t v = 0; v < 200; ++v) tree.Insert("k" + std::to_string(v), v);
  for (uint64_t v = 0; v < 200; ++v) {
    ASSERT_TRUE(tree.Erase("k" + std::to_string(v), v));
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(tree.Seek("").Valid());
  EXPECT_FALSE(tree.Seek("k5").Valid());
}

TEST(BPTreeTest, RangeScanMatchesOracle) {
  // The range rule TableIndex::Scan applies over the tree's raw byte keys.
  TableIndex index({0});
  std::multimap<std::string, uint64_t> oracle;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    std::string key = rng.AlnumString(1, 4);
    index.Insert(key, RowLoc{0, i});
    oracle.emplace(std::move(key), static_cast<uint64_t>(i));
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::string lo = rng.AlnumString(1, 4);
    std::string hi = rng.AlnumString(1, 4);
    if (hi < lo) std::swap(lo, hi);
    std::vector<uint64_t> got;
    for (RowLoc loc : Collect(index.Scan(lo, hi))) {
      got.push_back(static_cast<uint64_t>(loc.slot));
    }
    std::vector<uint64_t> want;
    // [lo, hi] inclusive of keys equal to or extending hi — with equal-length
    // alnum keys, extension means prefix match.
    for (auto it = oracle.lower_bound(lo); it != oracle.end(); ++it) {
      if (it->first > hi && it->first.compare(0, hi.size(), hi) != 0) break;
      want.push_back(it->second);
    }
    EXPECT_EQ(got, want) << "range [" << lo << ", " << hi << "]";
  }
}

TEST(BPTreeTest, SortedBulkLoadAndHeight) {
  // Ascending inserts hit the rightmost-append fast path; the tree must stay
  // balanced enough to answer point lookups, and ordered iteration must see
  // every key.
  BPTree tree;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    tree.Insert(Encoded({Value::Int(i)}), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(tree.size(), static_cast<size_t>(n));
  EXPECT_LE(tree.height(), 5);  // fan-out 64: 100k entries fit in height <= 3
  std::vector<uint64_t> v = ValuesAt(tree, Encoded({Value::Int(99999)}));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 99999u);
  v = ValuesAt(tree, Encoded({Value::Int(0)}));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 0u);
  size_t count = 0;
  uint64_t prev = 0;
  for (BPTree::Cursor c = tree.Seek(""); c.Valid(); c.Next()) {
    if (count > 0) {
      EXPECT_EQ(c.value(), prev + 1);
    }
    prev = c.value();
    ++count;
  }
  EXPECT_EQ(count, static_cast<size_t>(n));
}

// --- buffer pool ---------------------------------------------------------

TEST(BufferPoolTest, HitsMissesAndResidency) {
  BufferPool pool(/*capacity_frames=*/2);
  const uint32_t owner = pool.RegisterOwner();
  bool miss = false;
  { PageGuard g = pool.Pin(owner, 0, &miss); EXPECT_TRUE(miss); }
  { PageGuard g = pool.Pin(owner, 0, &miss); EXPECT_FALSE(miss); }
  { PageGuard g = pool.Pin(owner, 1, &miss); EXPECT_TRUE(miss); }
  BufferPoolStats st = pool.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.resident, 2u);
  EXPECT_EQ(st.pinned, 0u);  // all guards released
  EXPECT_TRUE(pool.Resident(owner, 0));
  EXPECT_TRUE(pool.Resident(owner, 1));
}

TEST(BufferPoolTest, CapacityEnforcedAndPinnedFramesSurvive) {
  BufferPool pool(/*capacity_frames=*/2);
  const uint32_t owner = pool.RegisterOwner();
  PageGuard hold = pool.Pin(owner, 0);  // keep page 0 pinned
  { PageGuard g = pool.Pin(owner, 1); }
  { PageGuard g = pool.Pin(owner, 2); }  // must evict page 1, not pinned 0
  EXPECT_TRUE(pool.Resident(owner, 0));
  EXPECT_FALSE(pool.Resident(owner, 1));
  EXPECT_TRUE(pool.Resident(owner, 2));
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_LE(pool.stats().resident, 2u);
  hold.Release();
}

TEST(BufferPoolTest, LruKPrefersColdVictim) {
  // k=2: page A accessed twice (hot), pages B/C once. When D arrives, the
  // victim must be a once-accessed frame (infinite backward-2-distance), and
  // among those the one with the OLDEST first access — B.
  BufferPool pool(/*capacity_frames=*/3, /*k=*/2);
  const uint32_t owner = pool.RegisterOwner();
  { PageGuard g = pool.Pin(owner, 'A'); }
  { PageGuard g = pool.Pin(owner, 'B'); }
  { PageGuard g = pool.Pin(owner, 'A'); }  // A now has 2 accesses
  { PageGuard g = pool.Pin(owner, 'C'); }
  { PageGuard g = pool.Pin(owner, 'D'); }  // evicts B
  EXPECT_TRUE(pool.Resident(owner, 'A'));
  EXPECT_FALSE(pool.Resident(owner, 'B'));
  EXPECT_TRUE(pool.Resident(owner, 'C'));
  EXPECT_TRUE(pool.Resident(owner, 'D'));
}

TEST(BufferPoolTest, ScanBurstDoesNotFlushHotSet) {
  // The LRU-K claim: a long one-touch scan must not evict the re-referenced
  // working set, which plain LRU would.
  BufferPool pool(/*capacity_frames=*/4, /*k=*/2);
  const uint32_t owner = pool.RegisterOwner();
  for (int round = 0; round < 3; ++round) {
    { PageGuard g = pool.Pin(owner, 1000); }
    { PageGuard g = pool.Pin(owner, 1001); }
  }
  for (int32_t p = 0; p < 50; ++p) {
    PageGuard g = pool.Pin(owner, p);
  }
  EXPECT_TRUE(pool.Resident(owner, 1000));
  EXPECT_TRUE(pool.Resident(owner, 1001));
  EXPECT_LE(pool.stats().resident, 4u);
}

TEST(BufferPoolTest, ShrinkingCapacityEvictsLazily) {
  BufferPool pool(/*capacity_frames=*/8);
  const uint32_t owner = pool.RegisterOwner();
  for (int32_t p = 0; p < 8; ++p) {
    PageGuard g = pool.Pin(owner, p);
  }
  EXPECT_EQ(pool.stats().resident, 8u);
  pool.set_capacity(2);
  { PageGuard g = pool.Pin(owner, 100); }  // triggers evictions down to cap
  EXPECT_LE(pool.stats().resident, 2u);
}

// --- statement pins ------------------------------------------------------

ResultSet MustExec(Database& db, const std::string& sql, int64_t session = 0) {
  auto r = db.Execute(session, sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : ResultSet{};
}

uint64_t PageReads(const BufferPool& pool) {
  const BufferPoolStats st = pool.stats();
  return st.hits + st.misses;
}

TEST(StatementPinsTest, RereadsOfAHeldPageCountAsHits) {
  BufferPool pool;
  const uint32_t owner = pool.RegisterOwner();
  PagePins pins;
  for (int i = 0; i < 5; ++i) pins.Pin(&pool, owner, 0);
  pins.Pin(&pool, owner, 1);
  pins.Pin(&pool, owner, 0);  // held: no second pool pin
  EXPECT_EQ(pool.stats().pinned, 2u);
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits, 0u);  // deferred until release
  pins.Release();
  EXPECT_EQ(pool.stats().pinned, 0u);
  EXPECT_EQ(pool.stats().hits, 5u);
  EXPECT_EQ(PageReads(pool), 7u);
}

TEST(StatementPinsTest, ARereadIsOneLruKAccess) {
  // k=2. B is touched twice around A; A is read five times by one set. One
  // recorded access leaves A's backward 2-distance infinite, so A — not
  // the twice-referenced B — is the victim when C arrives. Five recorded
  // accesses would have made B (older second-to-last access) the victim.
  BufferPool pool(/*capacity_frames=*/2, /*k=*/2);
  const uint32_t owner = pool.RegisterOwner();
  { PageGuard g = pool.Pin(owner, 'B'); }
  {
    PagePins pins;
    for (int i = 0; i < 5; ++i) pins.Pin(&pool, owner, 'A');
  }
  { PageGuard g = pool.Pin(owner, 'B'); }
  { PageGuard g = pool.Pin(owner, 'C'); }
  EXPECT_FALSE(pool.Resident(owner, 'A'));
  EXPECT_TRUE(pool.Resident(owner, 'B'));
}

TEST(StatementPinsTest, HoldsAtMostTheCap) {
  BufferPool pool;
  const uint32_t owner = pool.RegisterOwner();
  PagePins pins;
  const int32_t pages = 3 * static_cast<int32_t>(PagePins::kMaxHeld);
  for (int32_t p = 0; p < pages; ++p) {
    pins.Pin(&pool, owner, p);
    pins.Pin(&pool, owner, p);
    EXPECT_EQ(pool.stats().pinned,
              std::min<size_t>(static_cast<size_t>(p) + 1, PagePins::kMaxHeld));
  }
  // The newest pages are still held; the oldest were unpinned past the cap.
  pins.Pin(&pool, owner, pages - 1);
  EXPECT_EQ(pool.stats().misses, static_cast<uint64_t>(pages));
  pins.Release();
  EXPECT_EQ(pool.stats().pinned, 0u);
  EXPECT_EQ(PageReads(pool), static_cast<uint64_t>(2 * pages + 1));
}

// Through the engine: an index range scan reading N rows of one page.
TEST(StatementPinsTest, SelectPinsEachPageOncePerStatement) {
  Database db(FlavorTraits::Postgres());
  BufferPool& pool = db.buffer_pool();
  MustExec(db, "CREATE TABLE t (k INTEGER, s VARCHAR(8), PRIMARY KEY(k))");
  MustExec(db, "CREATE TABLE u (k INTEGER)");
  MustExec(db, "CREATE TABLE w (k INTEGER)");
  // At capacity 1 each load evicts the previous table's page, so the
  // loads' accesses are forgotten and u's page ends resident with one.
  pool.set_capacity(1);
  constexpr int kRows = 20;  // one page
  for (int k = 1; k <= kRows; ++k) {
    MustExec(db, "INSERT INTO t(k, s) VALUES (" + std::to_string(k) + ", 'x')");
  }
  MustExec(db, "INSERT INTO w(k) VALUES (1)");
  MustExec(db, "INSERT INTO u(k) VALUES (1)");
  pool.set_capacity(2);

  const uint64_t before = PageReads(pool);
  EXPECT_EQ(MustExec(db, "SELECT s FROM t WHERE k >= 1").rows.size(),
            static_cast<size_t>(kRows));
  EXPECT_EQ(PageReads(pool) - before, static_cast<uint64_t>(kRows));
  EXPECT_EQ(pool.stats().pinned, 0u);

  // t's page holds one LRU-K access, u's page two: admitting w's page
  // evicts t's (infinite backward distance), so u stays resident.
  MustExec(db, "SELECT k FROM u");
  MustExec(db, "SELECT k FROM w");
  uint64_t misses = pool.stats().misses;
  MustExec(db, "SELECT k FROM u");
  EXPECT_EQ(pool.stats().misses, misses);
  MustExec(db, "SELECT s FROM t WHERE k >= 1");
  EXPECT_EQ(pool.stats().misses, misses + 1);

  // A statement that fails mid-scan releases its pins too.
  auto bad = db.Execute(0, "SELECT k FROM t WHERE k >= 1 AND s = 5");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(pool.stats().pinned, 0u);
  auto bad_update = db.Execute(0, "UPDATE t SET k = 0 WHERE k >= 1 AND s = 5");
  EXPECT_FALSE(bad_update.ok());
  EXPECT_EQ(pool.stats().pinned, 0u);
}

TEST(StatementPinsTest, RangeScanOverManyPagesStaysNearCapacity) {
  Database db(FlavorTraits::Postgres());
  BufferPool& pool = db.buffer_pool();
  MustExec(db, "CREATE TABLE t (k INTEGER, pad VARCHAR(1000), PRIMARY KEY(k))");
  constexpr size_t kCapacity = 4;
  pool.set_capacity(kCapacity);
  constexpr int kRows = 400;  // about 8 rows per 8 KB page
  for (int k = 0; k < kRows; k += 20) {
    std::string sql = "INSERT INTO t(k, pad) VALUES ";
    for (int i = k; i < k + 20; ++i) {
      sql += (i > k ? ", (" : "(") + std::to_string(i) + ", 'p')";
    }
    MustExec(db, sql);
  }
  const uint64_t evictions = pool.stats().evictions;
  const uint64_t before = PageReads(pool);
  ResultSet rs = MustExec(db, "SELECT COUNT(*) FROM t WHERE k >= 0");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int(), kRows);
  EXPECT_EQ(PageReads(pool) - before, static_cast<uint64_t>(kRows));
  const BufferPoolStats st = pool.stats();
  EXPECT_GT(st.evictions, evictions);
  EXPECT_LE(st.resident, kCapacity + PagePins::kMaxHeld);
  EXPECT_EQ(st.pinned, 0u);
}

TEST(StatementPinsTest, ConcurrentJoinsCountEveryPageRead) {
  Database db(FlavorTraits::Postgres());
  MustExec(db, "CREATE TABLE ol (w INTEGER, o INTEGER, n INTEGER, "
               "item INTEGER, PRIMARY KEY(w, o, n))");
  MustExec(db, "CREATE TABLE st (w INTEGER, item INTEGER, qty INTEGER, "
               "PRIMARY KEY(w, item))");
  for (int item = 1; item <= 40; ++item) {
    MustExec(db, "INSERT INTO st(w, item, qty) VALUES (1, " +
                     std::to_string(item) + ", " + std::to_string(item) + ")");
  }
  for (int o = 1; o <= 20; ++o) {
    for (int n = 1; n <= 5; ++n) {
      MustExec(db, "INSERT INTO ol(w, o, n, item) VALUES (1, " +
                       std::to_string(o) + ", " + std::to_string(n) + ", " +
                       std::to_string((o * 7 + n) % 40 + 1) + ")");
    }
  }
  const std::string join =
      "SELECT COUNT(DISTINCT st.item) FROM ol, st WHERE ol.w = 1 AND "
      "ol.o >= 5 AND st.w = ol.w AND st.item = ol.item AND qty < 30";
  BufferPool& pool = db.buffer_pool();
  uint64_t before = PageReads(pool);
  const ResultSet expect = MustExec(db, join);
  const uint64_t per_stmt = PageReads(pool) - before;
  ASSERT_GT(per_stmt, 100u);  // 80 order lines plus their stock probes

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  before = PageReads(pool);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const int64_t session = db.OpenSession();
      for (int i = 0; i < kIters; ++i) {
        auto r = db.Execute(session, join);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (r.ok()) {
          EXPECT_EQ(r->rows, expect.rows);
        }
      }
      db.CloseSession(session);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(PageReads(pool) - before,
            static_cast<uint64_t>(kThreads * kIters) * per_stmt);
  EXPECT_EQ(pool.stats().pinned, 0u);
}

// --- access paths ----------------------------------------------------------
//
// Each query runs against `keyed` (PRIMARY KEY(k)) or `by_s` (PRIMARY
// KEY(s)) and against `plain`, which holds the same rows and no key. The
// index may change only how rows are found, never which rows (or which
// error) come back; the scan counters show the path each side took.

struct PathRun {
  std::string error;  // empty when the statement succeeded
  int64_t affected = 0;
  std::vector<std::vector<Value>> rows;  // sorted: paths may differ in order
  int64_t index_scans = 0;
  int64_t heap_scans = 0;
};

class AccessPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExec(db_, "CREATE TABLE keyed (k INTEGER, s VARCHAR(4), d DOUBLE, "
                  "PRIMARY KEY(k))");
    MustExec(db_, "CREATE TABLE by_s (k INTEGER, s VARCHAR(4), d DOUBLE, "
                  "PRIMARY KEY(s))");
    MustExec(db_, "CREATE TABLE plain (k INTEGER, s VARCHAR(4), d DOUBLE)");
    for (const char* t : {"keyed", "by_s", "plain"}) {
      for (int k = 1; k <= 5; ++k) {
        MustExec(db_, std::string("INSERT INTO ") + t + " (k, s, d) VALUES (" +
                          std::to_string(k) + ", 's" + std::to_string(k) +
                          "', " + std::to_string(k) + ".5)");
      }
    }
  }

  // Runs `sql` with every "$t" replaced by `table`.
  PathRun Run(const std::string& sql, const std::string& table) {
    std::string text = sql;
    for (size_t at; (at = text.find("$t")) != std::string::npos;) {
      text.replace(at, 2, table);
    }
    const int64_t is0 = obs::CounterValue(obs::Metrics::Get().index_scans);
    const int64_t hs0 = obs::CounterValue(obs::Metrics::Get().heap_scans);
    auto r = db_.Execute(0, text);
    PathRun run;
    run.index_scans = obs::CounterValue(obs::Metrics::Get().index_scans) - is0;
    run.heap_scans = obs::CounterValue(obs::Metrics::Get().heap_scans) - hs0;
    if (!r.ok()) {
      run.error = r.status().ToString();
      return run;
    }
    run.affected = r->affected;
    run.rows = r->rows;
    std::sort(run.rows.begin(), run.rows.end(),
              [](const std::vector<Value>& a, const std::vector<Value>& b) {
                return std::lexicographical_compare(a.begin(), a.end(),
                                                    b.begin(), b.end());
              });
    return run;
  }

  // Runs `sql` on `table` and on `plain`; the answers must agree. Returns
  // the keyed side's run.
  PathRun Same(const std::string& sql, const std::string& table = "keyed") {
    PathRun keyed = Run(sql, table);
    PathRun plain = Run(sql, "plain");
    EXPECT_EQ(keyed.error, plain.error) << sql;
    EXPECT_EQ(keyed.affected, plain.affected) << sql;
    EXPECT_EQ(keyed.rows, plain.rows) << sql;
    EXPECT_EQ(plain.index_scans, 0) << sql;
    return keyed;
  }

  Database db_{FlavorTraits::Postgres()};
};

TEST_F(AccessPathTest, NullEqualityTakesNeitherPath) {
  PathRun r = Same("SELECT k FROM $t WHERE k = NULL");
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.index_scans, 0);
  EXPECT_EQ(r.heap_scans, 0);
}

TEST_F(AccessPathTest, OverlongStringKeyFallsBackToHeap) {
  PathRun r = Same("SELECT k FROM $t WHERE s = 'far too long'", "by_s");
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.index_scans, 0);
  EXPECT_EQ(r.heap_scans, 1);
  r = Same("SELECT k FROM $t WHERE s = 's3'", "by_s");
  EXPECT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.index_scans, 1);
  EXPECT_EQ(r.heap_scans, 0);
}

TEST_F(AccessPathTest, FractionalBoundOnIntKeyIsRechecked) {
  // 2.5 coerces to the key 2; the residual check then drops k = 2.
  PathRun r = Same("SELECT k FROM $t WHERE k = 2.5");
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.index_scans, 1);
  r = Same("SELECT k FROM $t WHERE k > 2.5");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].as_int(), 3);
  EXPECT_EQ(r.index_scans, 1);
  EXPECT_EQ(r.heap_scans, 0);
}

TEST_F(AccessPathTest, OutOfRangeDoubleBoundIsUnbounded) {
  PathRun r = Same("SELECT k FROM $t WHERE k < 1e30");
  EXPECT_EQ(r.rows.size(), 5u);
  r = Same("SELECT k FROM $t WHERE k BETWEEN 0 AND 1e19");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.index_scans, 1);  // the lower bound still seeks
  r = Same("SELECT k FROM $t WHERE k > -1e30");
  EXPECT_EQ(r.rows.size(), 5u);
  // An out-of-range equality value cannot be a key: the heap answers.
  r = Same("SELECT k FROM $t WHERE k = 1e30");
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.heap_scans, 1);
  EXPECT_EQ(r.index_scans, 0);
  // ... and it is no INTEGER value to store.
  auto ins = db_.Execute(0, "INSERT INTO keyed (k, s, d) VALUES (1e30, 'x', 0)");
  ASSERT_FALSE(ins.ok());
  EXPECT_EQ(ins.status().code(), StatusCode::kConstraint);
  EXPECT_EQ(Same("SELECT k FROM $t").rows.size(), 5u);
}

TEST_F(AccessPathTest, NullRangeBoundIsUnboundedOnThatSide) {
  // The NULL side leaves the scan open; the residual check still decides.
  PathRun r = Same("SELECT k FROM $t WHERE k >= NULL AND k <= 3");
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.index_scans, 1);
  r = Same("SELECT k FROM $t WHERE k <= 3 AND (k >= NULL OR k >= 2)");
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.index_scans, 1);
  // Both bounds NULL: nothing bounds the scan, so the heap answers.
  r = Same("SELECT k FROM $t WHERE k > NULL AND k < NULL");
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.index_scans, 0);
  EXPECT_EQ(r.heap_scans, 1);
}

TEST_F(AccessPathTest, SelfJoinWalksOneIndexAtTwoDepths) {
  // Depth 0 scans k >= 2; for each of its rows, depth 1 walks the same
  // tree while depth 0's range is still open.
  PathRun r = Same(
      "SELECT a.k, b.k FROM $t a, $t b "
      "WHERE a.k >= 2 AND b.k >= a.k AND b.k <= a.k + 1");
  ASSERT_EQ(r.rows.size(), 7u);  // (2,2) (2,3) ... (5,5)
  EXPECT_EQ(r.index_scans, 1 + 4);
  EXPECT_EQ(r.heap_scans, 0);
  r = Same("SELECT a.k, b.s FROM $t a, $t b WHERE b.k = a.k + 1 AND a.k >= 1");
  EXPECT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.index_scans, 1 + 5);
}

TEST_F(AccessPathTest, UpdateAndDeleteTakeTheIndexPath) {
  PathRun r = Same("UPDATE $t SET s = 'u' WHERE k BETWEEN 2 AND 3");
  EXPECT_EQ(r.affected, 2);
  EXPECT_EQ(r.index_scans, 1);
  EXPECT_EQ(r.heap_scans, 0);
  // The moved keys land inside the scanned range: every match is collected
  // before the first write, so each row moves once.
  r = Same("UPDATE $t SET k = k + 10 WHERE k >= 4");
  EXPECT_EQ(r.affected, 2);
  EXPECT_EQ(r.index_scans, 1);
  r = Same("DELETE FROM $t WHERE k = 14");
  EXPECT_EQ(r.affected, 1);
  EXPECT_EQ(r.index_scans, 1);
  EXPECT_EQ(r.heap_scans, 0);
  r = Same("SELECT k, s, d FROM $t");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows.back()[0].as_int(), 15);
  EXPECT_EQ(Same("SELECT k FROM $t WHERE k = 15").index_scans, 1);
}

TEST_F(AccessPathTest, ResidualErrorsMatch) {
  PathRun r = Same("SELECT k FROM $t WHERE k >= 1 AND s = 5");
  EXPECT_FALSE(r.error.empty());
}

// --- Page: tombstone-slot semantics --------------------------------------

TEST(PageTest, DeleteTombstonesWithoutMovingRows) {
  Page page(256, 16);
  std::vector<std::string> rows;
  for (int i = 0; i < 8; ++i) {
    rows.push_back(std::string(16, static_cast<char>('a' + i)));
    page.Insert(rows.back());
  }
  // Delete from the middle: every other row stays in its slot.
  page.DeleteAt(2);
  EXPECT_EQ(page.row_count(), 7);
  EXPECT_EQ(page.slot_count(), 8);
  EXPECT_FALSE(page.SlotLive(2));
  EXPECT_EQ(page.RowAt(3), rows[3]);
  EXPECT_EQ(page.RowAt(7), rows[7]);
  page.DeleteAt(0);
  EXPECT_EQ(page.RowAt(1), rows[1]);
  // Dead slots read as scrubbed zero bytes in the raw image.
  std::string_view raw = page.RawBytes();
  for (int b = 0; b < 16; ++b) {
    EXPECT_EQ(raw[b], '\0');
    EXPECT_EQ(raw[2 * 16 + b], '\0');
  }
}

TEST(PageTest, InsertReusesLowestDeadSlot) {
  Page page(128, 16);
  for (int i = 0; i < 8; ++i) page.Insert(std::string(16, 'x'));
  EXPECT_FALSE(page.HasSpace());
  page.DeleteAt(5);
  page.DeleteAt(1);
  page.DeleteAt(3);
  EXPECT_TRUE(page.HasSpace());
  EXPECT_EQ(page.Insert(std::string(16, 'n')), 1 * 16);  // lowest dead first
  EXPECT_EQ(page.Insert(std::string(16, 'n')), 3 * 16);
  EXPECT_EQ(page.Insert(std::string(16, 'n')), 5 * 16);
  EXPECT_FALSE(page.HasSpace());
  EXPECT_EQ(page.row_count(), 8);
}

TEST(PageTest, UpdateInPlaceDoesNotMoveRows) {
  Page page(128, 16);
  page.Insert(std::string(16, 'a'));
  page.Insert(std::string(16, 'b'));
  page.UpdateAt(0, std::string(16, 'z'));
  EXPECT_EQ(page.RowAt(0), std::string(16, 'z'));
  EXPECT_EQ(page.RowAt(1), std::string(16, 'b'));
}

TEST(PageTest, SpaceAccounting) {
  Page page(64, 16);
  EXPECT_TRUE(page.HasSpace());
  for (int i = 0; i < 4; ++i) page.Insert(std::string(16, 'x'));
  EXPECT_FALSE(page.HasSpace());
  page.DeleteAt(1);
  EXPECT_TRUE(page.HasSpace());
}

// --- HeapTable + indexes -------------------------------------------------

TEST(HeapTableTest, RowsNeverMigrateAcrossPages) {
  Schema schema = TestSchema();
  HeapTable table("t", schema, /*page_size=*/schema.row_size() * 3);
  RowCodec codec(&schema);
  std::vector<RowLoc> locs;
  for (int i = 0; i < 10; ++i) {
    Row row;
    row.values = {Value::Int(i), Value::Str("r"), Value::Double(0)};
    row.rowid = i + 1;
    locs.push_back(table.Insert(codec.Encode(row).value()));
  }
  EXPECT_EQ(table.page_count(), 4);
  // Delete everything on page 0; pages 1..3 must be untouched.
  table.DeleteAt(RowLoc{0, 2});
  table.DeleteAt(RowLoc{0, 1});
  table.DeleteAt(RowLoc{0, 0});
  EXPECT_EQ(table.GetPage(0)->row_count(), 0);
  EXPECT_EQ(table.GetPage(1)->row_count(), 3);
  // A new insert reuses the vacated space (no cross-page motion of others).
  Row row;
  row.values = {Value::Int(99), Value::Str("n"), Value::Double(0)};
  row.rowid = 99;
  RowLoc loc = table.Insert(codec.Encode(row).value());
  EXPECT_EQ(loc.page, 0);
  EXPECT_EQ(loc.slot, 0);  // lowest dead slot of the lowest free page
}

TEST(HeapTableTest, DeterministicFreeListPlacement) {
  // Insert placement must be a pure function of table state: lowest page
  // with space first, lowest dead slot within it. Two tables receiving the
  // same operation sequence must agree on every location — WAL redo asserts
  // exactly this.
  Schema schema = TestSchema();
  auto run = [&](HeapTable* table) {
    RowCodec codec(&schema);
    std::vector<RowLoc> trace;
    auto ins = [&](int k) {
      Row row;
      row.values = {Value::Int(k), Value::Str("x"), Value::Double(0)};
      row.rowid = k + 1;
      trace.push_back(table->Insert(codec.Encode(row).value()));
    };
    for (int i = 0; i < 9; ++i) ins(i);       // 3 pages of 3
    table->DeleteAt(RowLoc{2, 1});            // free on the LAST page first
    table->DeleteAt(RowLoc{0, 2});            // then on the first
    table->DeleteAt(RowLoc{0, 0});
    ins(100);                                 // -> page 0 slot 0
    ins(101);                                 // -> page 0 slot 2
    ins(102);                                 // -> page 2 slot 1
    ins(103);                                 // -> new page 3
    return trace;
  };
  HeapTable a("a", schema, schema.row_size() * 3);
  HeapTable b("b", schema, schema.row_size() * 3);
  std::vector<RowLoc> ta = run(&a);
  std::vector<RowLoc> tb = run(&b);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].page, tb[i].page) << i;
    EXPECT_EQ(ta[i].slot, tb[i].slot) << i;
  }
  EXPECT_EQ(ta[9].page, 0);
  EXPECT_EQ(ta[9].slot, 0);
  EXPECT_EQ(ta[10].page, 0);
  EXPECT_EQ(ta[10].slot, 2);
  EXPECT_EQ(ta[11].page, 2);
  EXPECT_EQ(ta[11].slot, 1);
  EXPECT_EQ(ta[12].page, 3);
  EXPECT_EQ(ta[12].slot, 0);
}

TEST(HeapTableTest, ScanSkipsTombstonedSlots) {
  Schema schema = TestSchema();
  HeapTable table("t", schema, schema.row_size() * 4);
  RowCodec codec(&schema);
  for (int i = 0; i < 8; ++i) {
    Row row;
    row.values = {Value::Int(i), Value::Str("x"), Value::Double(0)};
    row.rowid = i + 1;
    table.Insert(codec.Encode(row).value());
  }
  table.DeleteAt(RowLoc{0, 1});
  table.DeleteAt(RowLoc{1, 0});
  std::set<int64_t> seen;
  table.Scan([&](RowLoc, std::string_view bytes) {
    auto v = codec.DecodeColumn(bytes, 0);
    ASSERT_TRUE(v.ok());
    seen.insert(v->as_int());
  });
  EXPECT_EQ(seen, (std::set<int64_t>{0, 2, 3, 5, 6, 7}));
  EXPECT_EQ(table.row_count(), 6);
}

TEST(HeapTableTest, IndexStaysExactUnderTombstoneDeletes) {
  Schema schema = TestSchema();
  HeapTable table("t", schema, schema.row_size() * 8);
  table.SetPrimaryIndex({0});
  RowCodec codec(&schema);
  for (int i = 0; i < 8; ++i) {
    Row row;
    row.values = {Value::Int(i), Value::Str("x"), Value::Double(0)};
    row.rowid = i + 1;
    table.Insert(codec.Encode(row).value());
  }
  // Delete k=2; every other key must still resolve to its (unmoved) slot.
  table.DeleteAt(RowLoc{0, 2});
  for (int k = 0; k < 8; ++k) {
    std::vector<RowLoc> locs = PrefixLocs(*table.index(), {Value::Int(k)});
    if (k == 2) {
      EXPECT_TRUE(locs.empty());
      continue;
    }
    ASSERT_EQ(locs.size(), 1u) << "k=" << k;
    EXPECT_EQ(locs[0].slot, k);  // tombstones never move other rows
    auto v = codec.DecodeColumn(table.ReadAt(locs[0]), 0);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->as_int(), k);
  }
}

TEST(HeapTableTest, NonUniqueKeysAcrossPages) {
  Schema schema = TestSchema();
  HeapTable table("t", schema, schema.row_size() * 4);  // 4 rows per page
  table.SetPrimaryIndex({1});                           // non-unique str key
  RowCodec codec(&schema);
  std::vector<std::string> keys = {"dup", "a", "dup", "b",  "c",  "d",
                                   "dup", "e", "f",   "g",  "h",  "i"};
  for (size_t i = 0; i < keys.size(); ++i) {
    Row row;
    row.values = {Value::Int(static_cast<int>(i)), Value::Str(keys[i]),
                  Value::Double(0)};
    row.rowid = static_cast<int64_t>(i) + 1;
    table.Insert(codec.Encode(row).value());
  }
  ASSERT_EQ(table.page_count(), 3);
  table.DeleteAt(RowLoc{0, 0});  // one of the three "dup" rows
  table.DeleteAt(RowLoc{1, 1});  // "d"
  std::vector<RowLoc> locs = PrefixLocs(*table.index(), {Value::Str("dup")});
  ASSERT_EQ(locs.size(), 2u);
  for (RowLoc loc : locs) {
    auto v = codec.DecodeColumn(table.ReadAt(loc), 1);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->as_string(), "dup");
  }
  for (const char* k : {"a", "b", "c", "e", "f", "g", "h", "i"}) {
    locs = PrefixLocs(*table.index(), {Value::Str(k)});
    ASSERT_EQ(locs.size(), 1u) << k;
    auto v = codec.DecodeColumn(table.ReadAt(locs[0]), 1);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->as_string(), k);
  }
  locs = PrefixLocs(*table.index(), {Value::Str("d")});
  EXPECT_TRUE(locs.empty());
}

TEST(HeapTableTest, IndexFollowsKeyUpdates) {
  Schema schema = TestSchema();
  HeapTable table("t", schema, kDefaultPageSize);
  table.SetPrimaryIndex({0});
  RowCodec codec(&schema);
  Row row;
  row.values = {Value::Int(1), Value::Str("x"), Value::Double(0)};
  row.rowid = 1;
  RowLoc loc = table.Insert(codec.Encode(row).value());
  row.values[0] = Value::Int(2);
  table.UpdateAt(loc, codec.Encode(row).value());
  std::vector<RowLoc> locs = PrefixLocs(*table.index(), {Value::Int(1)});
  EXPECT_TRUE(locs.empty());
  locs = PrefixLocs(*table.index(), {Value::Int(2)});
  EXPECT_EQ(locs.size(), 1u);

  // An update of a non-key column leaves every entry in place: the three
  // rows under k=2 keep their insertion order (a re-insert would move the
  // updated one to the end of the run).
  row.rowid = 2;
  const RowLoc second = table.Insert(codec.Encode(row).value());
  row.rowid = 3;
  const RowLoc third = table.Insert(codec.Encode(row).value());
  const std::vector<RowLoc> before = PrefixLocs(*table.index(), {Value::Int(2)});
  ASSERT_EQ(before.size(), 3u);
  EXPECT_TRUE(before[0] == loc && before[1] == second && before[2] == third);
  row.rowid = 1;
  row.values[1] = Value::Str("y");
  row.values[2] = Value::Double(7.5);
  table.UpdateAt(loc, codec.Encode(row).value());
  const std::vector<RowLoc> after = PrefixLocs(*table.index(), {Value::Int(2)});
  ASSERT_EQ(after.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_TRUE(after[i] == before[i]) << i;
  EXPECT_EQ(table.index()->entry_count(), 3u);

  // -0.0 and 0.0 are one key: flipping a DOUBLE key's sign of zero keeps
  // exactly one entry, found by either spelling.
  HeapTable dt("d", schema, kDefaultPageSize);
  dt.SetPrimaryIndex({2});
  row.values[2] = Value::Double(-0.0);
  const RowLoc zero = dt.Insert(codec.Encode(row).value());
  for (double d : {0.0, -0.0, 0.0}) {
    row.values[2] = Value::Double(d);
    dt.UpdateAt(zero, codec.Encode(row).value());
    EXPECT_EQ(dt.index()->entry_count(), 1u) << d;
    for (double probe : {0.0, -0.0}) {
      locs = PrefixLocs(*dt.index(), {Value::Double(probe)});
      ASSERT_EQ(locs.size(), 1u) << d << " probed as " << probe;
      EXPECT_TRUE(locs[0] == zero);
    }
  }
}

TEST(HeapTableTest, PrefixLookupMultiColumn) {
  std::vector<Column> cols;
  cols.push_back({"a", ValueType::kInt, 0, false, false});
  cols.push_back({"b", ValueType::kInt, 0, false, false});
  Schema schema(std::move(cols), true);
  HeapTable table("t", schema, kDefaultPageSize);
  table.SetPrimaryIndex({0, 1});
  RowCodec codec(&schema);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 4; ++b) {
      Row row;
      row.values = {Value::Int(a), Value::Int(b)};
      row.rowid = a * 4 + b + 1;
      table.Insert(codec.Encode(row).value());
    }
  }
  std::vector<RowLoc> locs = PrefixLocs(*table.index(), {Value::Int(1)});
  EXPECT_EQ(locs.size(), 4u);
  locs = PrefixLocs(*table.index(), {Value::Int(1), Value::Int(2)});
  EXPECT_EQ(locs.size(), 1u);
  locs = PrefixLocs(*table.index(), {Value::Int(9)});
  EXPECT_TRUE(locs.empty());
}

TEST(HeapTableTest, RangeScanOnNextKeyColumn) {
  std::vector<Column> cols;
  cols.push_back({"a", ValueType::kInt, 0, false, false});
  cols.push_back({"b", ValueType::kInt, 0, false, false});
  Schema schema(std::move(cols), true);
  HeapTable table("t", schema, kDefaultPageSize);
  table.SetPrimaryIndex({0, 1});
  RowCodec codec(&schema);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 10; ++b) {
      Row row;
      row.values = {Value::Int(a), Value::Int(b)};
      row.rowid = a * 10 + b + 1;
      table.Insert(codec.Encode(row).value());
    }
  }
  std::vector<RowLoc> locs =
      RangeLocs(*table.index(), {Value::Int(1)}, Value::Int(3), Value::Int(6));
  ASSERT_EQ(locs.size(), 4u);  // b in {3,4,5,6}
  for (size_t i = 0; i < locs.size(); ++i) {
    auto a = codec.DecodeColumn(table.ReadAt(locs[i]), 0);
    auto b = codec.DecodeColumn(table.ReadAt(locs[i]), 1);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->as_int(), 1);
    EXPECT_EQ(b->as_int(), 3 + static_cast<int64_t>(i));  // key order
  }
  // Open-ended bounds.
  locs = RangeLocs(*table.index(), {Value::Int(2)}, Value::Int(8), std::nullopt);
  EXPECT_EQ(locs.size(), 2u);  // b in {8,9}
  locs = RangeLocs(*table.index(), {Value::Int(0)}, std::nullopt, Value::Int(2));
  EXPECT_EQ(locs.size(), 3u);  // b in {0,1,2}
}

TEST(HeapTableTest, SecondaryIndexBackfillAndMaintenance) {
  Schema schema = TestSchema();
  HeapTable table("t", schema, schema.row_size() * 4);
  table.SetPrimaryIndex({0});
  RowCodec codec(&schema);
  auto make = [&](int k, const std::string& s) {
    Row row;
    row.values = {Value::Int(k), Value::Str(s), Value::Double(0)};
    row.rowid = k + 1;
    return codec.Encode(row).value();
  };
  for (int i = 0; i < 6; ++i) table.Insert(make(i, i % 2 ? "odd" : "even"));
  // Backfill covers pre-existing rows.
  ASSERT_TRUE(table.AddSecondaryIndex("t_by_s", {1}).ok());
  ASSERT_FALSE(table.AddSecondaryIndex("T_BY_S", {1}).ok());  // case-insensitive
  const TableIndex* sec = table.FindSecondaryIndex("t_by_s");
  ASSERT_NE(sec, nullptr);
  std::vector<RowLoc> locs = PrefixLocs(*sec, {Value::Str("odd")});
  EXPECT_EQ(locs.size(), 3u);
  // Maintained on insert / delete / key update.
  RowLoc loc = table.Insert(make(100, "odd"));
  locs = PrefixLocs(*sec, {Value::Str("odd")});
  EXPECT_EQ(locs.size(), 4u);
  table.DeleteAt(loc);
  locs = PrefixLocs(*sec, {Value::Str("odd")});
  EXPECT_EQ(locs.size(), 3u);
  table.UpdateAt(RowLoc{0, 1}, make(1, "even"));  // k=1 flips odd -> even
  locs = PrefixLocs(*sec, {Value::Str("odd")});
  EXPECT_EQ(locs.size(), 2u);
  locs = PrefixLocs(*sec, {Value::Str("even")});
  EXPECT_EQ(locs.size(), 4u);
  EXPECT_TRUE(table.DropSecondaryIndex("t_by_s"));
  EXPECT_FALSE(table.DropSecondaryIndex("t_by_s"));
  EXPECT_EQ(table.FindSecondaryIndex("t_by_s"), nullptr);
}

TEST(HeapTableTest, PinsPagesThroughAttachedBufferPool) {
  BufferPool pool;  // unbounded
  Schema schema = TestSchema();
  HeapTable table("t", schema, schema.row_size() * 3, &pool);
  RowCodec codec(&schema);
  for (int i = 0; i < 7; ++i) {
    Row row;
    row.values = {Value::Int(i), Value::Str("x"), Value::Double(0)};
    row.rowid = i + 1;
    table.Insert(codec.Encode(row).value());
  }
  EXPECT_EQ(pool.stats().resident, static_cast<size_t>(table.page_count()));
  const uint64_t misses_after_load = pool.stats().misses;
  table.Scan([](RowLoc, std::string_view) {});
  EXPECT_EQ(pool.stats().misses, misses_after_load);  // all resident: hits
  EXPECT_GT(pool.stats().hits, 0u);
}

TEST(CatalogTest, LifecycleAndCaseInsensitivity) {
  Catalog catalog;
  auto t = catalog.CreateTable("Orders", TestSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_NE(catalog.Find("ORDERS"), nullptr);
  EXPECT_NE(catalog.Find("orders"), nullptr);
  EXPECT_FALSE(catalog.CreateTable("ORDERS", TestSchema()).ok());
  auto id = catalog.TableId("orders");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(catalog.FindById(*id), *t);
  ASSERT_TRUE(catalog.DropTable("Orders").ok());
  EXPECT_EQ(catalog.Find("orders"), nullptr);
  EXPECT_FALSE(catalog.DropTable("orders").ok());
}

TEST(CatalogTest, FindTableOfIndex) {
  Catalog catalog;
  auto t = catalog.CreateTable("orders", TestSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(catalog.FindTableOfIndex("orders_by_s"), nullptr);
  ASSERT_TRUE((*t)->AddSecondaryIndex("orders_by_s", {1}).ok());
  EXPECT_EQ(catalog.FindTableOfIndex("orders_by_s"), *t);
  EXPECT_EQ(catalog.FindTableOfIndex("ORDERS_BY_S"), *t);
}

}  // namespace
}  // namespace irdb
