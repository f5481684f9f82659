// Parallel repair pipeline (DESIGN.md §5c): determinism and serial/parallel
// equivalence.
//
//   - ThreadPool: SplitRange properties, ParallelFor chunking, inline mode.
//   - WalLog snapshots stay fixed, LSN-indexed prefixes under live appends.
//   - DependencyGraph::ToDot is insertion-order independent.
//   - Parallel closure == serial BFS on seeded random graphs under filters.
//   - End-to-end property: across flavors x seeds, repairing the same seeded
//     history at threads=1 and threads=4 yields the same dependency graph
//     rendering, the same undo set, and byte-identical database state.
//   - A failing compensation lane leaves only its table uncompensated, holds
//     nothing afterwards, and ends in the same state at threads=1 and 4.
//
// The account-script generator mirrors tests/chaos_test.cc (additive-constant
// updates, fixed statement text) so histories are reproducible from a seed.
#include <atomic>
#include <cstdint>
#include <memory>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "proxy/tracking_proxy.h"
#include "repair/dba_policy.h"
#include "repair/dependency_graph.h"
#include "repair/repair_engine.h"
#include "txn/wal_log.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wire/connection.h"

namespace irdb {
namespace {

using repair::DepEdge;
using repair::DepKind;
using repair::DependencyGraph;
using util::ThreadPool;

// ---------------------------------------------------------------------------
// ThreadPool.

TEST(ThreadPoolTest, SplitRangeCoversContiguouslyWithBalancedSizes) {
  for (int64_t n : {0, 1, 2, 3, 7, 8, 100, 101, 1023}) {
    for (int chunks : {1, 2, 3, 4, 8, 200}) {
      const auto ranges = ThreadPool::SplitRange(n, chunks);
      if (n == 0) {
        EXPECT_TRUE(ranges.empty());
        continue;
      }
      ASSERT_EQ(ranges.size(),
                static_cast<size_t>(std::min<int64_t>(chunks, n)));
      int64_t expect_begin = 0, min_size = n, max_size = 0;
      for (size_t i = 0; i < ranges.size(); ++i) {
        EXPECT_EQ(ranges[i].first, expect_begin);
        const int64_t size = ranges[i].second - ranges[i].first;
        EXPECT_GE(size, 1);
        if (i > 0) {
          EXPECT_LE(size, ranges[i - 1].second - ranges[i - 1].first);
        }
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
        expect_begin = ranges[i].second;
      }
      EXPECT_EQ(expect_begin, n);
      EXPECT_LE(max_size - min_size, 1);
    }
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnceInSplitRangeChunks) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.lanes(), 4);
  const int64_t n = 103;
  std::vector<std::atomic<int>> visits(n);
  std::vector<std::pair<int64_t, int64_t>> seen(4, {-1, -1});
  pool.ParallelFor(n, [&](int64_t begin, int64_t end, int chunk) {
    seen[static_cast<size_t>(chunk)] = {begin, end};
    for (int64_t i = begin; i < end; ++i) visits[static_cast<size_t>(i)]++;
  });
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(visits[static_cast<size_t>(i)], 1);
  const auto expect = ThreadPool::SplitRange(n, 4);
  ASSERT_EQ(expect.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(seen[i], expect[i]);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.threads, 4);
  EXPECT_EQ(stats.parallel_fors, 1);
  EXPECT_EQ(stats.tasks_run, 4);
}

TEST(ThreadPoolTest, SubmitRunsTasksAndResolvesFutures) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 1; i <= 20; ++i) {
    futs.push_back(pool.Submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futs) f.wait();
  EXPECT_EQ(sum, 210);
  EXPECT_GE(pool.stats().tasks_run, 20);
}

TEST(ThreadPoolTest, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.lanes(), 1);
  EXPECT_EQ(pool.stats().threads, 0);  // no workers started
  int chunks = 0;
  int64_t covered = 0;
  pool.ParallelFor(10, [&](int64_t begin, int64_t end, int chunk) {
    ++chunks;
    EXPECT_EQ(chunk, 0);
    covered += end - begin;
  });
  EXPECT_EQ(chunks, 1);
  EXPECT_EQ(covered, 10);
  bool ran = false;
  pool.Submit([&ran] { ran = true; }).wait();
  EXPECT_TRUE(ran);
}

// ---------------------------------------------------------------------------
// WalLog snapshots under concurrent appends.

// Appender threads grow the log across several segment boundaries while a
// reader snapshots it in a loop and scans each snapshot with no lock held.
// Every snapshot is a fixed prefix: its size never changes as the log
// grows, record i carries LSN i, and a record keeps its address in every
// later snapshot (and through at()). The final snapshot holds every append,
// each appender's records in its own append order.
TEST(WalLogTest, SnapshotsStayFixedWhileAppendersRun) {
  constexpr int kAppenders = 3;
  constexpr size_t kPerAppender = 3 * kWalSegmentRecords + 17;
  constexpr size_t kTotal = kAppenders * kPerAppender;
  WalLog wal;
  std::atomic<bool> go{false};
  std::vector<std::thread> appenders;
  for (int t = 0; t < kAppenders; ++t) {
    appenders.emplace_back([&wal, &go, t] {
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < kPerAppender; ++i) {
        LogRecord rec;
        rec.txn_id = t + 1;
        rec.op = LogOp::kInsert;
        rec.after_image = std::to_string(i);
        wal.Append(std::move(rec));
      }
    });
  }

  // A failed ASSERT returns from this lambda only, so the appenders are
  // always joined below.
  std::vector<std::pair<WalView, size_t>> snapshots;
  auto snapshot_until_complete = [&] {
    for (size_t seen = 0; seen < kTotal;) {
      WalView view = wal.records();
      ASSERT_GE(view.size(), seen);
      for (size_t i = 0; i < view.size(); ++i) {
        ASSERT_EQ(view[i].lsn, static_cast<int64_t>(i));
      }
      if (!view.empty()) {
        ASSERT_EQ(&wal.at(view.size() - 1), &view.back());
      }
      if (!snapshots.empty()) {
        const WalView& prev = snapshots.back().first;
        for (size_t i = 0; i < prev.size(); ++i) ASSERT_EQ(&prev[i], &view[i]);
      }
      seen = view.size();
      snapshots.emplace_back(std::move(view), seen);
    }
  };
  go.store(true);
  snapshot_until_complete();
  for (std::thread& t : appenders) t.join();
  if (HasFatalFailure()) return;

  const WalView final_view = wal.records();
  ASSERT_EQ(final_view.size(), kTotal);
  EXPECT_EQ(wal.size(), static_cast<int64_t>(kTotal));
  for (const auto& [view, size] : snapshots) {
    ASSERT_EQ(view.size(), size);
    for (size_t i = 0; i < size; ++i) ASSERT_EQ(&view[i], &final_view[i]);
  }
  std::vector<size_t> next(kAppenders, 0);
  size_t lsn = 0;
  for (const LogRecord& rec : final_view) {
    EXPECT_EQ(rec.lsn, static_cast<int64_t>(lsn++));
    size_t& expect = next[static_cast<size_t>(rec.txn_id - 1)];
    EXPECT_EQ(rec.after_image, std::to_string(expect++));
  }
  EXPECT_EQ(next, std::vector<size_t>(kAppenders, kPerAppender));
}

// ---------------------------------------------------------------------------
// Deterministic DOT + parallel closure.

TEST(DependencyGraphTest, ToDotIndependentOfEdgeInsertionOrder) {
  std::vector<DepEdge> edges = {
      {2, 1, "account", DepKind::kRuntime},
      {3, 1, "orders", DepKind::kReconstructed},
      {3, 2, "account", DepKind::kRuntime},
      {4, 3, "stock", DepKind::kConservative},
      {5, 2, "orders", DepKind::kRuntime},
  };
  DependencyGraph forward, reverse;
  for (const DepEdge& e : edges) forward.AddEdge(e);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    reverse.AddEdge(*it);
  }
  forward.SetLabel(3, "Payment");
  reverse.SetLabel(3, "Payment");
  EXPECT_EQ(forward.ToDot(), reverse.ToDot());
  EXPECT_EQ(forward.ToDot({2, 3}), reverse.ToDot({2, 3}));
}

TEST(DependencyGraphTest, ParallelClosureMatchesSerialOnRandomGraphs) {
  const char* kTables[] = {"account", "orders", "skip"};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    DependencyGraph g;
    const int64_t n = 80;
    for (int64_t id = 1; id <= n; ++id) g.AddNode(id);
    for (int64_t reader = 2; reader <= n; ++reader) {
      const int64_t fanin = rng.Uniform(0, 3);
      for (int64_t k = 0; k < fanin; ++k) {
        DepEdge e;
        e.reader = reader;
        e.writer = rng.Uniform(1, reader - 1);
        e.table = kTables[rng.Uniform(0, 2)];
        e.kind = static_cast<DepKind>(rng.Uniform(0, 2));
        g.AddEdge(e);
      }
    }
    std::vector<int64_t> seeds;
    for (int k = 0; k < 3; ++k) seeds.push_back(rng.Uniform(1, n / 2));

    const std::vector<std::function<bool(const DepEdge&)>> filters = {
        [](const DepEdge&) { return true; },
        [](const DepEdge& e) {
          return e.table != "skip" && e.kind != DepKind::kConservative;
        },
    };
    ThreadPool pool2(2), pool4(4);
    for (const auto& keep : filters) {
      const std::set<int64_t> serial = g.Affected(seeds, keep, nullptr);
      EXPECT_EQ(g.Affected(seeds, keep, &pool2), serial) << "seed " << seed;
      EXPECT_EQ(g.Affected(seeds, keep, &pool4), serial) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end property: threads=1 and threads=4 repair identically.

constexpr size_t kAttackIndex = 4;
constexpr int kAccounts = 10;

struct Script {
  std::string label;
  std::vector<std::string> stmts;
};

// Mirrors tests/chaos_test.cc: all statement text fixed up front, updates are
// additive constants, so the history is a pure function of the seed.
std::vector<Script> MakeScripts(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Script> scripts;
  for (size_t j = 0; j < n; ++j) {
    Script sc;
    if (j == kAttackIndex) {
      sc.label = "Attack";
      sc.stmts.push_back(
          "UPDATE account SET balance = balance + 1000 WHERE id = 1");
    } else {
      sc.label = "Txn_" + std::to_string(j);
      const int reads = static_cast<int>(rng.Uniform(1, 2));
      for (int k = 0; k < reads; ++k) {
        sc.stmts.push_back("SELECT balance FROM account WHERE id = " +
                           std::to_string(rng.Uniform(1, kAccounts)));
      }
      const int writes = static_cast<int>(rng.Uniform(1, 2));
      for (int k = 0; k < writes; ++k) {
        sc.stmts.push_back("UPDATE account SET balance = balance + " +
                           std::to_string(rng.Uniform(1, 50)) +
                           " WHERE id = " +
                           std::to_string(rng.Uniform(1, kAccounts)));
      }
      if (rng.Bernoulli(0.2)) {
        sc.stmts.push_back("INSERT INTO account(id, balance) VALUES (" +
                           std::to_string(100 + j) + ", 10.0)");
      }
    }
    scripts.push_back(std::move(sc));
  }
  return scripts;
}

// One tracked deployment with a fully replayed seeded history.
struct History {
  explicit History(FlavorTraits traits) : db(traits) {}
  Database db;
  int64_t attack_trid = 0;
};

void BuildHistory(FlavorTraits traits, uint64_t seed,
                  std::unique_ptr<History>* out) {
  auto h = std::make_unique<History>(traits);
  DirectConnection direct(&h->db);
  proxy::TxnIdAllocator alloc;
  proxy::TrackingProxy proxy(&direct, &alloc, traits);
  ASSERT_TRUE(proxy.EnsureTrackingTables().ok());

  ASSERT_TRUE(
      proxy.Execute("CREATE TABLE account (id INTEGER NOT NULL, balance DOUBLE)")
          .ok());
  ASSERT_TRUE(proxy.Execute("BEGIN").ok());
  proxy.SetAnnotation("Setup");
  std::string values;
  for (int id = 1; id <= kAccounts; ++id) {
    if (!values.empty()) values += ", ";
    values += "(" + std::to_string(id) + ", " + std::to_string(100 * id) +
              ".0)";
  }
  ASSERT_TRUE(
      proxy.Execute("INSERT INTO account(id, balance) VALUES " + values).ok());
  ASSERT_TRUE(proxy.Execute("COMMIT").ok());

  const std::vector<Script> scripts = MakeScripts(seed, 16);
  for (size_t j = 0; j < scripts.size(); ++j) {
    ASSERT_TRUE(proxy.Execute("BEGIN").ok());
    proxy.SetAnnotation(scripts[j].label);
    for (const std::string& sql : scripts[j].stmts) {
      ASSERT_TRUE(proxy.Execute(sql).ok()) << sql;
    }
    const int64_t trid = proxy.current_txn_id();
    ASSERT_TRUE(proxy.Execute("COMMIT").ok());
    if (j == kAttackIndex) h->attack_trid = trid;
  }
  ASSERT_NE(h->attack_trid, 0);
  *out = std::move(h);
}

TEST(ParallelRepairPropertyTest, SerialAndParallelRepairAgreeAcrossFlavors) {
  struct Flavor {
    const char* name;
    FlavorTraits traits;
  };
  const Flavor flavors[] = {
      {"postgres", FlavorTraits::Postgres()},
      {"oracle", FlavorTraits::Oracle()},
      {"sybase", FlavorTraits::Sybase()},
  };
  for (const Flavor& flavor : flavors) {
    for (uint64_t seed : {uint64_t{20260805}, uint64_t{7}, uint64_t{431}}) {
      SCOPED_TRACE(std::string(flavor.name) + " seed " + std::to_string(seed));
      // Two identical deployments: repair mutates state, so serial and
      // parallel each get their own copy of the same seeded history.
      std::unique_ptr<History> serial, parallel;
      ASSERT_NO_FATAL_FAILURE(BuildHistory(flavor.traits, seed, &serial));
      ASSERT_NO_FATAL_FAILURE(BuildHistory(flavor.traits, seed, &parallel));
      ASSERT_EQ(serial->attack_trid, parallel->attack_trid);
      const std::vector<std::string> tables =
          serial->db.catalog().TableNames();
      ASSERT_EQ(serial->db.StateHash(tables), parallel->db.StateHash(tables));

      repair::RepairEngine eng1(&serial->db, /*threads=*/1);
      repair::RepairEngine eng4(&parallel->db, /*threads=*/4);
      auto analysis1 = eng1.Analyze();
      auto analysis4 = eng4.Analyze();
      ASSERT_TRUE(analysis1.ok()) << analysis1.status().ToString();
      ASSERT_TRUE(analysis4.ok()) << analysis4.status().ToString();

      // Same graph, byte-identical rendering (sorted DOT).
      EXPECT_EQ(repair::RepairEngine::ExportDot(*analysis1),
                repair::RepairEngine::ExportDot(*analysis4));

      const auto policy = repair::DbaPolicy::TrackEverything();
      const std::set<int64_t> undo1 =
          eng1.ComputeUndoSet(*analysis1, {serial->attack_trid}, policy);
      const std::set<int64_t> undo4 =
          eng4.ComputeUndoSet(*analysis4, {parallel->attack_trid}, policy);
      EXPECT_EQ(undo1, undo4);
      EXPECT_GT(undo1.count(serial->attack_trid), 0u);

      auto report1 = eng1.CompensateUndoSet(*analysis1, undo1);
      auto report4 = eng4.CompensateUndoSet(*analysis4, undo4);
      ASSERT_TRUE(report1.ok()) << report1.status().ToString();
      ASSERT_TRUE(report4.ok()) << report4.status().ToString();
      EXPECT_EQ(report1->ops_compensated, report4->ops_compensated);

      // The repaired databases are byte-identical across every table,
      // tracking side tables included.
      EXPECT_EQ(serial->db.StateHash(tables), parallel->db.StateHash(tables));
      EXPECT_GE(eng4.phase_stats().compensate_lanes, 1);
    }
  }
}

// ---------------------------------------------------------------------------
// A failing compensation lane: every lane runs to its commit or rollback, so
// the failure leaves exactly the failing table uncompensated, holds no lock
// or transaction, and ends in the same state at every thread count.

// Tables `a` and `b`; one tracked transaction updates a row in each, then an
// untracked DELETE removes the `a` row, so compensating `a` touches 0 rows.
void BuildFailingLaneHistory(std::unique_ptr<History>* out) {
  const FlavorTraits traits = FlavorTraits::Postgres();
  auto h = std::make_unique<History>(traits);
  DirectConnection direct(&h->db);
  proxy::TxnIdAllocator alloc;
  proxy::TrackingProxy proxy(&direct, &alloc, traits);
  ASSERT_TRUE(proxy.EnsureTrackingTables().ok());
  for (const char* sql :
       {"CREATE TABLE a (id INTEGER NOT NULL, v INTEGER, PRIMARY KEY (id))",
        "CREATE TABLE b (id INTEGER NOT NULL, v INTEGER, PRIMARY KEY (id))"}) {
    ASSERT_TRUE(proxy.Execute(sql).ok()) << sql;
  }
  ASSERT_TRUE(proxy.Execute("BEGIN").ok());
  proxy.SetAnnotation("Setup");
  for (const char* table : {"a", "b"}) {
    ASSERT_TRUE(proxy.Execute(std::string("INSERT INTO ") + table +
                              "(id, v) VALUES (1, 10), (2, 20)")
                    .ok());
  }
  ASSERT_TRUE(proxy.Execute("COMMIT").ok());
  ASSERT_TRUE(proxy.Execute("BEGIN").ok());
  proxy.SetAnnotation("Attack");
  ASSERT_TRUE(proxy.Execute("UPDATE a SET v = 11 WHERE id = 1").ok());
  ASSERT_TRUE(proxy.Execute("UPDATE b SET v = 11 WHERE id = 1").ok());
  h->attack_trid = proxy.current_txn_id();
  ASSERT_TRUE(proxy.Execute("COMMIT").ok());

  DirectConnection untracked(&h->db);
  ASSERT_TRUE(untracked.Execute("DELETE FROM a WHERE id = 1").ok());
  *out = std::move(h);
}

TEST(CompensationLaneTest, FailingLaneLeavesOnlyItsTableUncompensated) {
  std::vector<uint64_t> repaired;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::unique_ptr<History> h;
    ASSERT_NO_FATAL_FAILURE(BuildFailingLaneHistory(&h));
    const uint64_t a_before = h->db.StateHash({"a"});

    repair::RepairEngine eng(&h->db, threads);
    auto analysis = eng.Analyze();
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    const std::set<int64_t> undo = eng.ComputeUndoSet(
        *analysis, {h->attack_trid}, repair::DbaPolicy::TrackEverything());
    auto report = eng.CompensateUndoSet(*analysis, undo);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInternal)
        << report.status().ToString();

    // Reads from another session are served at once: the failed lane holds
    // no transaction and no lock. `a` is as the DELETE left it; `b` and the
    // attack's tracking rows are healed.
    DirectConnection reader(&h->db);
    auto a_rows = reader.Execute("SELECT id, v FROM a");
    ASSERT_TRUE(a_rows.ok()) << a_rows.status().ToString();
    EXPECT_EQ(a_rows->rows.size(), 1u);
    EXPECT_EQ(h->db.StateHash({"a"}), a_before);
    auto b_row = reader.Execute("SELECT v FROM b WHERE id = 1");
    ASSERT_TRUE(b_row.ok()) << b_row.status().ToString();
    ASSERT_EQ(b_row->rows.size(), 1u);
    EXPECT_EQ(b_row->rows[0][0].as_int(), 10);
    for (const char* table : {"trans_dep", "annot"}) {
      auto meta = reader.Execute(std::string("SELECT tr_id FROM ") + table +
                                 " WHERE tr_id = " +
                                 std::to_string(h->attack_trid));
      ASSERT_TRUE(meta.ok()) << meta.status().ToString();
      EXPECT_EQ(meta->rows.size(), 0u) << table;
    }
    repaired.push_back(h->db.StateHash(h->db.catalog().TableNames()));

    // The same call again fails on the same table, not on a transaction the
    // first call left open.
    auto again = eng.CompensateUndoSet(*analysis, undo);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), StatusCode::kInternal)
        << again.status().ToString();
  }
  ASSERT_EQ(repaired.size(), 2u);
  EXPECT_EQ(repaired[0], repaired[1]);
}

}  // namespace
}  // namespace irdb
