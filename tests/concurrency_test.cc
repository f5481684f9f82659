// Lock manager + concurrent engine tests (DESIGN.md §5f): mode lattice,
// FIFO fairness, upgrades, deadlock detection, and the anomalies strict 2PL
// must exclude (lost update, write skew) under real multi-threaded
// execution, plus the serial-vs-concurrent tracking-completeness property
// at 8 threads. Labelled `concurrency`; tools/run_chaos.sh runs this binary
// under TSan as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/lock_manager.h"
#include "concurrency/transaction_manager.h"
#include "engine/database.h"
#include "obs/catalog.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "proxy/tracking_proxy.h"
#include "wire/connection.h"

namespace irdb {
namespace {

using concurrency::IsDeadlockAbort;
using concurrency::LockCompatible;
using concurrency::LockManager;
using concurrency::LockMode;
using concurrency::LockSupremum;
using concurrency::ResourceId;

constexpr LockMode kIS = LockMode::kIntentionShared;
constexpr LockMode kIX = LockMode::kIntentionExclusive;
constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kSIX = LockMode::kSharedIntentionExclusive;
constexpr LockMode kX = LockMode::kExclusive;

TEST(LockModes, CompatibilityMatrix) {
  // IS conflicts only with X.
  EXPECT_TRUE(LockCompatible(kIS, kIS));
  EXPECT_TRUE(LockCompatible(kIS, kIX));
  EXPECT_TRUE(LockCompatible(kIS, kS));
  EXPECT_TRUE(LockCompatible(kIS, kSIX));
  EXPECT_FALSE(LockCompatible(kIS, kX));
  // IX conflicts with S, SIX and X.
  EXPECT_TRUE(LockCompatible(kIX, kIX));
  EXPECT_FALSE(LockCompatible(kIX, kS));
  EXPECT_FALSE(LockCompatible(kIX, kSIX));
  EXPECT_FALSE(LockCompatible(kIX, kX));
  // S conflicts with IX, SIX and X.
  EXPECT_TRUE(LockCompatible(kS, kS));
  EXPECT_FALSE(LockCompatible(kS, kSIX));
  EXPECT_FALSE(LockCompatible(kS, kX));
  // SIX admits only IS.
  EXPECT_FALSE(LockCompatible(kSIX, kSIX));
  EXPECT_FALSE(LockCompatible(kSIX, kX));
  // X conflicts with everything.
  EXPECT_FALSE(LockCompatible(kX, kX));
  // Symmetry.
  for (LockMode a : {kIS, kIX, kS, kSIX, kX}) {
    for (LockMode b : {kIS, kIX, kS, kSIX, kX}) {
      EXPECT_EQ(LockCompatible(a, b), LockCompatible(b, a));
    }
  }
}

TEST(LockModes, SupremumLattice) {
  EXPECT_EQ(LockSupremum(kIS, kIX), kIX);
  EXPECT_EQ(LockSupremum(kIS, kS), kS);
  EXPECT_EQ(LockSupremum(kS, kIX), kSIX);  // read all, write some below
  EXPECT_EQ(LockSupremum(kS, kS), kS);
  EXPECT_EQ(LockSupremum(kIS, kSIX), kSIX);
  EXPECT_EQ(LockSupremum(kIX, kSIX), kSIX);
  EXPECT_EQ(LockSupremum(kS, kSIX), kSIX);
  for (LockMode a : {kIS, kIX, kS, kSIX, kX}) {
    EXPECT_EQ(LockSupremum(a, kX), kX);
    EXPECT_EQ(LockSupremum(a, a), a);
    for (LockMode b : {kIS, kIX, kS, kSIX, kX}) {
      EXPECT_EQ(LockSupremum(a, b), LockSupremum(b, a));
      // The supremum is an upper bound: whatever conflicts with a or b
      // conflicts with it too.
      for (LockMode c : {kIS, kIX, kS, kSIX, kX}) {
        if (!LockCompatible(a, c) || !LockCompatible(b, c)) {
          EXPECT_FALSE(LockCompatible(LockSupremum(a, b), c));
        }
      }
    }
  }
}

TEST(LockModes, ResourceOrderIsRootToLeaf) {
  // Sorted (table, level, depth, hash): a granule never precedes one that
  // encloses it, whatever the hashes.
  const ResourceId table = ResourceId::Table(2);
  const ResourceId w = ResourceId::Prefix(2, 1, ~0ULL);
  const ResourceId wd = ResourceId::Prefix(2, 2, 1);
  const ResourceId key = ResourceId::Key(2, 0);
  EXPECT_LT(table, w);
  EXPECT_LT(w, wd);
  EXPECT_LT(wd, key);
  EXPECT_LT(key, ResourceId::Table(3));
  // Same hash on different levels names different resources.
  EXPECT_FALSE(ResourceId::Prefix(2, 1, 7) == ResourceId::Prefix(2, 2, 7));
  EXPECT_FALSE(ResourceId::Prefix(2, 1, 7) == ResourceId::Key(2, 7));
}

TEST(LockManagerTest, SharedGrantsCoexistKeysAreIndependent) {
  LockManager lm;
  const ResourceId table = ResourceId::Table(1);
  ASSERT_TRUE(lm.Acquire(1, table, kIS).ok());
  ASSERT_TRUE(lm.Acquire(2, table, kIX).ok());
  // Different keys under the same table never conflict.
  ASSERT_TRUE(lm.Acquire(1, ResourceId::Key(1, 10), kS).ok());
  ASSERT_TRUE(lm.Acquire(2, ResourceId::Key(1, 12), kX).ok());
  EXPECT_EQ(lm.held_count(1), 2);
  EXPECT_EQ(lm.held_count(2), 2);
  EXPECT_TRUE(lm.holds(1, table, kIS));
  EXPECT_FALSE(lm.holds(1, table, kS));
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.held_count(1), 0);
  EXPECT_EQ(lm.stats().waits, 0);
}

TEST(LockManagerTest, AcquireIsIdempotentAndWidens) {
  LockManager lm;
  const ResourceId r = ResourceId::Key(1, 5);
  ASSERT_TRUE(lm.Acquire(1, r, kS).ok());
  ASSERT_TRUE(lm.Acquire(1, r, kS).ok());  // re-request: no-op
  ASSERT_TRUE(lm.Acquire(1, r, kX).ok());  // sole holder: upgrade in place
  EXPECT_TRUE(lm.holds(1, r, kX));
  EXPECT_EQ(lm.held_count(1), 1);
  EXPECT_EQ(lm.stats().upgrades, 1);
  lm.ReleaseAll(1);
}

TEST(LockManagerTest, ReleaseAllWakesWaiter) {
  LockManager lm;
  const ResourceId r = ResourceId::Table(7);
  ASSERT_TRUE(lm.Acquire(1, r, kX).ok());
  std::atomic<bool> granted{false};
  std::thread t([&] {
    ASSERT_TRUE(lm.Acquire(2, r, kS).ok());
    granted.store(true);
    lm.ReleaseAll(2);
  });
  // Give the waiter time to block, then release.
  while (lm.stats().waits == 0) std::this_thread::yield();
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(1);
  t.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(lm.stats().deadlocks, 0);
}

TEST(LockManagerTest, FifoGrantOrderWriterNotStarved) {
  LockManager lm;
  const ResourceId r = ResourceId::Table(3);
  ASSERT_TRUE(lm.Acquire(1, r, kS).ok());

  std::mutex order_mu;
  std::vector<int64_t> grant_order;
  auto locker = [&](int64_t txn, LockMode mode) {
    ASSERT_TRUE(lm.Acquire(txn, r, mode).ok());
    {
      std::lock_guard<std::mutex> g(order_mu);
      grant_order.push_back(txn);
    }
    lm.ReleaseAll(txn);
  };

  // Writer 2 queues behind holder 1; reader 3 arrives later and, although
  // compatible with 1's grant, must queue behind the waiting writer.
  std::thread w([&] { locker(2, kX); });
  while (lm.stats().waits < 1) std::this_thread::yield();
  std::thread s([&] { locker(3, kS); });
  while (lm.stats().waits < 2) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> g(order_mu);
    EXPECT_TRUE(grant_order.empty());  // the barrier held the reader back
  }
  lm.ReleaseAll(1);
  w.join();
  s.join();
  EXPECT_EQ(grant_order, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(lm.stats().deadlocks, 0);
}

TEST(LockManagerTest, DeadlockCycleDetectedAndTagged) {
  LockManager lm;
  const ResourceId a = ResourceId::Key(1, 100);
  const ResourceId b = ResourceId::Key(1, 200);
  ASSERT_TRUE(lm.Acquire(1, a, kX).ok());
  ASSERT_TRUE(lm.Acquire(2, b, kX).ok());

  Status s1, s2;
  std::thread t1([&] {
    s1 = lm.Acquire(1, b, kX);
    if (!s1.ok()) lm.ReleaseAll(1);  // victim dissolves the cycle
  });
  while (lm.stats().waits < 1) std::this_thread::yield();
  std::thread t2([&] {
    s2 = lm.Acquire(2, a, kX);
    if (!s2.ok()) lm.ReleaseAll(2);
  });
  t1.join();
  t2.join();
  // Exactly one side is the victim; the survivor was granted.
  EXPECT_NE(s1.ok(), s2.ok());
  const Status& victim = s1.ok() ? s2 : s1;
  EXPECT_EQ(victim.code(), StatusCode::kAborted);
  EXPECT_TRUE(IsDeadlockAbort(victim));
  EXPECT_GE(lm.stats().deadlocks, 1);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(LockManagerTest, UpgradeDeadlockBetweenTwoReaders) {
  // Two S holders both trying to upgrade to X is the canonical conversion
  // deadlock: each waits for the other to drop S.
  LockManager lm;
  const ResourceId r = ResourceId::Key(1, 9);
  ASSERT_TRUE(lm.Acquire(1, r, kS).ok());
  ASSERT_TRUE(lm.Acquire(2, r, kS).ok());
  Status s1, s2;
  std::thread t1([&] {
    s1 = lm.Acquire(1, r, kX);
    if (!s1.ok()) lm.ReleaseAll(1);
  });
  while (lm.stats().waits < 1) std::this_thread::yield();
  std::thread t2([&] {
    s2 = lm.Acquire(2, r, kX);
    if (!s2.ok()) lm.ReleaseAll(2);
  });
  t1.join();
  t2.join();
  EXPECT_NE(s1.ok(), s2.ok());
  EXPECT_TRUE(IsDeadlockAbort(s1.ok() ? s2 : s1));
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(StatusTagging, DeadlockRetryabilitySplit) {
  // Only the autocommit tag is retryable; a bare "[deadlock]" abort must
  // reach the client (their explicit transaction is gone).
  Status autocommit(StatusCode::kAborted,
                    std::string(kRetryableAbortTag) + " victim of txn 7");
  Status explicit_txn(StatusCode::kAborted, "[deadlock] victim of txn 7");
  EXPECT_TRUE(autocommit.IsRetryable());
  EXPECT_TRUE(IsDeadlockAbort(autocommit));
  EXPECT_FALSE(explicit_txn.IsRetryable());
  EXPECT_TRUE(IsDeadlockAbort(explicit_txn));
  EXPECT_FALSE(IsDeadlockAbort(Status::Aborted("metadata lost")));
}

// ---------------------------------------------------------------- engine

// Runs `script` as one explicit transaction, retrying the whole script when
// it loses a deadlock race. Any failure rolls back (which also clears the
// engine's poisoned-session state) before the next attempt. Retries back
// off with random jitter: N sessions doing SELECT-then-UPDATE on one key
// all take S and then all deadlock on the X upgrade, so immediate retry
// livelocks when the machine is slow enough (TSan) that they re-collide.
void RunTxnWithRetry(DirectConnection& conn,
                     const std::vector<std::string>& script) {
  thread_local std::mt19937 rng(std::random_device{}());
  for (int attempt = 0; attempt < 200; ++attempt) {
    bool failed = false;
    for (const std::string& sql : script) {
      auto r = conn.Execute(sql);
      if (!r.ok()) {
        ASSERT_TRUE(IsDeadlockAbort(r.status()) || r.status().IsRetryable())
            << sql << " -> " << r.status().ToString();
        (void)conn.Execute("ROLLBACK");
        failed = true;
        break;
      }
    }
    if (!failed) return;
    const int cap = 100 << std::min(attempt, 6);  // 100us .. 6.4ms
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::uniform_int_distribution<int>(0, cap)(rng)));
  }
  FAIL() << "transaction never committed within the retry budget";
}

TEST(ConcurrentEngineTest, LostUpdatePreventedAcrossReadModifyWrite) {
  Database db(FlavorTraits::Postgres());
  {
    DirectConnection setup(&db);
    ASSERT_TRUE(setup.Execute("CREATE TABLE acct (id INTEGER NOT NULL, bal "
                              "INTEGER, PRIMARY KEY(id))")
                    .ok());
    ASSERT_TRUE(
        setup.Execute("INSERT INTO acct (id, bal) VALUES (1, 0)").ok());
  }
  constexpr int kThreads = 8;
  constexpr int kIters = 12;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db] {
      DirectConnection conn(&db);
      for (int i = 0; i < kIters; ++i) {
        // Read-modify-write across two statements: without 2PL (or with
        // early lock release) increments are lost; the S->X upgrade race
        // makes half of these deadlock and retry.
        RunTxnWithRetry(conn, {"BEGIN",
                               "SELECT bal FROM acct WHERE id = 1",
                               "UPDATE acct SET bal = bal + 1 WHERE id = 1",
                               "COMMIT"});
      }
    });
  }
  for (auto& t : threads) t.join();
  DirectConnection check(&db);
  auto r = check.Execute("SELECT bal FROM acct WHERE id = 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), kThreads * kIters);
  // Transaction bookkeeping balanced: everything begun was resolved.
  auto ts = db.txn_manager().stats();
  EXPECT_EQ(ts.active, 0);
  EXPECT_EQ(ts.began, ts.committed + ts.aborted);
}

TEST(ConcurrentEngineTest, WriteSkewExcludedByTwoPhaseLocking) {
  Database db(FlavorTraits::Postgres());
  {
    DirectConnection setup(&db);
    ASSERT_TRUE(setup.Execute("CREATE TABLE duty (id INTEGER NOT NULL, bal "
                              "INTEGER, PRIMARY KEY(id))")
                    .ok());
    ASSERT_TRUE(
        setup.Execute("INSERT INTO duty (id, bal) VALUES (1, 50), (2, 50)")
            .ok());
  }
  // Each transaction reads BOTH rows and, if the combined balance allows,
  // withdraws 60 from its own. Snapshot-style engines let both commit
  // (sum -20); strict 2PL serializes them so at most one withdrawal fits.
  auto withdraw = [&db](int id) {
    DirectConnection conn(&db);
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto begin = conn.Execute("BEGIN");
      ASSERT_TRUE(begin.ok());
      auto sum = conn.Execute("SELECT SUM(bal) FROM duty");
      if (!sum.ok()) {
        (void)conn.Execute("ROLLBACK");
        continue;
      }
      bool ok = true;
      if (sum->rows[0][0].as_int() >= 60) {
        auto upd = conn.Execute("UPDATE duty SET bal = bal - 60 WHERE id = " +
                                std::to_string(id));
        ok = upd.ok();
      }
      if (ok) {
        auto commit = conn.Execute("COMMIT");
        if (commit.ok()) return;
      } else {
        (void)conn.Execute("ROLLBACK");
      }
    }
    FAIL() << "withdrawal never resolved";
  };
  std::thread t1([&] { withdraw(1); });
  std::thread t2([&] { withdraw(2); });
  t1.join();
  t2.join();
  DirectConnection check(&db);
  auto r = check.Execute("SELECT SUM(bal) FROM duty");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->rows[0][0].as_int(), 0) << "write skew: both withdrawals won";
  EXPECT_EQ(r->rows[0][0].as_int(), 40);  // exactly one 60-withdrawal fits
}

TEST(ConcurrentEngineTest, ExplicitTxnDeadlockPoisonsUntilRollback) {
  Database db(FlavorTraits::Postgres());
  DirectConnection c1(&db), c2(&db);
  ASSERT_TRUE(c1.Execute("CREATE TABLE t (id INTEGER NOT NULL, v INTEGER, "
                         "PRIMARY KEY(id))")
                  .ok());
  ASSERT_TRUE(
      c1.Execute("INSERT INTO t (id, v) VALUES (1, 0), (2, 0)").ok());

  ASSERT_TRUE(c1.Execute("BEGIN").ok());
  ASSERT_TRUE(c2.Execute("BEGIN").ok());
  ASSERT_TRUE(c1.Execute("UPDATE t SET v = 1 WHERE id = 1").ok());
  ASSERT_TRUE(c2.Execute("UPDATE t SET v = 2 WHERE id = 2").ok());

  // Cross over: c1 blocks on key 2; c2 then closes the cycle on key 1.
  Status s1, s2;
  std::thread blocked([&] {
    auto r = c1.Execute("UPDATE t SET v = 1 WHERE id = 2");
    s1 = r.ok() ? Status::Ok() : r.status();
  });
  while (db.txn_manager().locks().stats().waits < 1) {
    std::this_thread::yield();
  }
  {
    auto r = c2.Execute("UPDATE t SET v = 2 WHERE id = 1");
    s2 = r.ok() ? Status::Ok() : r.status();
  }
  blocked.join();

  ASSERT_NE(s1.ok(), s2.ok());
  DirectConnection& victim = s1.ok() ? c2 : c1;
  DirectConnection& survivor = s1.ok() ? c1 : c2;
  const Status& verdict = s1.ok() ? s2 : s1;
  EXPECT_TRUE(IsDeadlockAbort(verdict));
  EXPECT_FALSE(verdict.IsRetryable()) << "explicit txns must not auto-retry";

  // The victim's session is poisoned until it acknowledges with ROLLBACK.
  auto poisoned = victim.Execute("SELECT v FROM t WHERE id = 1");
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(victim.Execute("ROLLBACK").ok());

  // The survivor still holds its X locks; commit first so the victim's next
  // read doesn't block on them.
  EXPECT_TRUE(survivor.Execute("COMMIT").ok());
  EXPECT_TRUE(victim.Execute("SELECT v FROM t WHERE id = 1").ok());
  EXPECT_GE(db.stats().deadlock_aborts, 1);
  EXPECT_GE(db.txn_manager().locks().stats().deadlocks, 1);
}

// ------------------------------------------------- key-prefix granules

// order_line(w, d, o, n) and customer(w, d, c), the TPC-C key shapes, with
// a short wait timeout so a wrongly blocked statement fails fast instead
// of hanging the suite.
class PrefixGranuleTest : public ::testing::Test {
 protected:
  PrefixGranuleTest() : db_(FlavorTraits::Postgres()) {
    db_.txn_manager().locks().set_wait_timeout_seconds(5.0);
    DirectConnection setup(&db_);
    Exec(setup, "CREATE TABLE order_line (w INTEGER, d INTEGER, o INTEGER,"
                " n INTEGER, amount INTEGER, PRIMARY KEY (w, d, o, n))");
    Exec(setup, "INSERT INTO order_line (w, d, o, n, amount) VALUES"
                " (1, 1, 1, 1, 10), (1, 1, 1, 2, 20), (1, 1, 2, 1, 30),"
                " (1, 2, 1, 1, 40)");
    Exec(setup, "CREATE TABLE customer (w INTEGER, d INTEGER, c INTEGER,"
                " last VARCHAR(16), bal INTEGER, PRIMARY KEY (w, d, c))");
    Exec(setup, "INSERT INTO customer (w, d, c, last, bal) VALUES"
                " (1, 1, 1, 'ABLE', 0), (1, 1, 2, 'BAKER', 0),"
                " (1, 2, 1, 'ABLE', 0), (1, 2, 2, 'BAKER', 0)");
  }

  static ResultSet Exec(DirectConnection& conn, const std::string& sql) {
    auto r = conn.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultSet{};
  }

  int64_t Waits() const { return db_.txn_manager().locks().stats().waits; }

  // Runs `sql` on its own connection and thread; Wait() joins it.
  struct Pending {
    std::thread thread;
    std::atomic<bool> done{false};
    Status status;
    void Wait() { thread.join(); }
  };
  void Start(Pending* p, std::string sql) {
    p->thread = std::thread([this, p, sql = std::move(sql)] {
      DirectConnection conn(&db_);
      auto r = conn.Execute(sql);
      p->status = r.ok() ? Status::Ok() : r.status();
      p->done.store(true);
    });
  }
  // Blocks until the lock manager has seen `n` waits in total.
  void AwaitWaits(int64_t n) const {
    while (Waits() < n) std::this_thread::yield();
  }

  Database db_;
};

TEST_F(PrefixGranuleTest, PrefixScanBlocksPhantomInsertInItsGranuleOnly) {
  DirectConnection scanner(&db_), writer(&db_);
  Exec(scanner, "BEGIN");
  ResultSet before =
      Exec(scanner, "SELECT COUNT(*) FROM order_line WHERE w = 1 AND d = 1");
  ASSERT_EQ(before.rows.size(), 1u);
  EXPECT_EQ(before.rows[0][0].as_int(), 3);

  // Another district's granule is free.
  Exec(writer, "INSERT INTO order_line (w, d, o, n, amount) VALUES"
               " (1, 2, 2, 1, 50)");
  EXPECT_EQ(Waits(), 0);

  // A row under the scanned prefix waits for the scanner's commit.
  Pending insert;
  Start(&insert, "INSERT INTO order_line (w, d, o, n, amount) VALUES"
                 " (1, 1, 3, 1, 60)");
  AwaitWaits(1);
  EXPECT_FALSE(insert.done.load());
  ResultSet again =
      Exec(scanner, "SELECT COUNT(*) FROM order_line WHERE w = 1 AND d = 1");
  EXPECT_EQ(again.rows[0][0].as_int(), 3) << "phantom row visible";
  Exec(scanner, "COMMIT");
  insert.Wait();
  EXPECT_TRUE(insert.status.ok()) << insert.status.ToString();
  ResultSet after =
      Exec(writer, "SELECT COUNT(*) FROM order_line WHERE w = 1 AND d = 1");
  EXPECT_EQ(after.rows[0][0].as_int(), 4);
}

TEST_F(PrefixGranuleTest, ByNamePaymentsInTwoDistrictsNeverWait) {
  // Payment by last name: prefix read of the district's customers, then a
  // keyed update of one of them. Locked at table granularity, the two
  // reads share table S and each update needs S+IX on it: a deadlock.
  DirectConnection p1(&db_), p2(&db_);
  Exec(p1, "BEGIN");
  Exec(p2, "BEGIN");
  Exec(p1, "SELECT c FROM customer WHERE w = 1 AND d = 1 AND last = 'ABLE'"
           " ORDER BY c");
  Exec(p2, "SELECT c FROM customer WHERE w = 1 AND d = 2 AND last = 'BAKER'"
           " ORDER BY c");
  Exec(p1, "UPDATE customer SET bal = bal + 5 WHERE w = 1 AND d = 1 AND c = 1");
  Exec(p2, "UPDATE customer SET bal = bal + 7 WHERE w = 1 AND d = 2 AND c = 2");
  Exec(p1, "COMMIT");
  Exec(p2, "COMMIT");
  const concurrency::LockManagerStats st = db_.txn_manager().locks().stats();
  EXPECT_EQ(st.waits, 0);
  EXPECT_EQ(st.deadlocks, 0);
  EXPECT_EQ(st.timeouts, 0);
  ResultSet bal = Exec(p1, "SELECT SUM(bal) FROM customer");
  EXPECT_EQ(bal.rows[0][0].as_int(), 12);
}

TEST_F(PrefixGranuleTest, SixAdmitsKeyReadersUnderTheReadGranule) {
  // A by-name Payment holds SIX on its district after its keyed update; a
  // NewOrder-style keyed read of another customer there passes (IS is
  // compatible with SIX), the updated customer's key still blocks.
  DirectConnection payment(&db_), reader(&db_);
  Exec(payment, "BEGIN");
  Exec(payment,
       "SELECT c FROM customer WHERE w = 1 AND d = 1 AND last = 'ABLE'");
  Exec(payment, "UPDATE customer SET bal = 9 WHERE w = 1 AND d = 1 AND c = 1");
  Exec(reader, "SELECT bal FROM customer WHERE w = 1 AND d = 1 AND c = 2");
  EXPECT_EQ(Waits(), 0);
  Pending blocked;
  Start(&blocked, "SELECT bal FROM customer WHERE w = 1 AND d = 1 AND c = 1");
  AwaitWaits(1);
  EXPECT_FALSE(blocked.done.load());
  Exec(payment, "COMMIT");
  blocked.Wait();
  EXPECT_TRUE(blocked.status.ok()) << blocked.status.ToString();
}

TEST_F(PrefixGranuleTest, DeliveryPrefixUpdateBlocksKeyReadsUnderItOnly) {
  // Delivery: UPDATE order_line ... WHERE w, d, o takes X on the (w,d,o)
  // granule, not on the table.
  DirectConnection delivery(&db_), reader(&db_);
  Exec(delivery, "BEGIN");
  Exec(delivery, "UPDATE order_line SET amount = amount + 1"
                 " WHERE o = 1 AND d = 1 AND w = 1");
  // Other orders of the same district, and other districts, stay readable.
  Exec(reader, "SELECT amount FROM order_line"
               " WHERE w = 1 AND d = 1 AND o = 2 AND n = 1");
  Exec(reader, "SELECT SUM(amount) FROM order_line WHERE w = 1 AND d = 2");
  EXPECT_EQ(Waits(), 0);

  Pending blocked;
  Start(&blocked, "SELECT amount FROM order_line"
                  " WHERE w = 1 AND d = 1 AND o = 1 AND n = 2");
  AwaitWaits(1);
  EXPECT_FALSE(blocked.done.load());
  Exec(delivery, "COMMIT");
  blocked.Wait();
  EXPECT_TRUE(blocked.status.ok()) << blocked.status.ToString();
}

// --------------------------------------------------- abort attribution

TEST(LockAbortAttribution, ConversionDeadlockJournalsOneVictim) {
  Database db(FlavorTraits::Postgres());
  DirectConnection c1(&db), c2(&db);
  ASSERT_TRUE(c1.Execute("CREATE TABLE t (id INTEGER NOT NULL, v INTEGER, "
                         "PRIMARY KEY(id))")
                  .ok());
  ASSERT_TRUE(c1.Execute("INSERT INTO t (id, v) VALUES (1, 0)").ok());
  obs::EventJournal& journal = obs::EventJournal::Default();
  const int64_t events_before =
      journal.CountType(obs::event::kEngineDeadlockVictim);

  // Both read the key (S), then both write it (S -> X): the canonical
  // conversion deadlock.
  ASSERT_TRUE(c1.Execute("BEGIN").ok());
  ASSERT_TRUE(c2.Execute("BEGIN").ok());
  ASSERT_TRUE(c1.Execute("SELECT v FROM t WHERE id = 1").ok());
  ASSERT_TRUE(c2.Execute("SELECT v FROM t WHERE id = 1").ok());
  Status s1, s2;
  std::thread first([&] {
    auto r = c1.Execute("UPDATE t SET v = 1 WHERE id = 1");
    s1 = r.ok() ? Status::Ok() : r.status();
  });
  while (db.txn_manager().locks().stats().waits < 1) {
    std::this_thread::yield();
  }
  {
    auto r = c2.Execute("UPDATE t SET v = 2 WHERE id = 1");
    s2 = r.ok() ? Status::Ok() : r.status();
  }
  first.join();
  ASSERT_NE(s1.ok(), s2.ok());
  EXPECT_TRUE(IsDeadlockAbort(s1.ok() ? s2 : s1));
  DirectConnection& victim = s1.ok() ? c2 : c1;
  DirectConnection& survivor = s1.ok() ? c1 : c2;
  EXPECT_TRUE(victim.Execute("ROLLBACK").ok());
  EXPECT_TRUE(survivor.Execute("COMMIT").ok());

  EXPECT_EQ(journal.CountType(obs::event::kEngineDeadlockVictim),
            events_before + 1);
  const std::vector<obs::JournalEvent> events = journal.Snapshot();
  const obs::JournalEvent* last = nullptr;
  for (const obs::JournalEvent& e : events) {
    if (e.type == obs::event::kEngineDeadlockVictim) last = &e;
  }
  ASSERT_NE(last, nullptr);
  using Fields = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(last->fields, (Fields{{"table", "t"},
                                  {"level", "key"},
                                  {"requested", "X"},
                                  {"held", "S"},
                                  {"cause", "cycle"},
                                  {"stmt", "UPDATE"}}));
}

TEST(LockAbortAttribution, WaitTimeoutCountsAsTimeoutNotDeadlock) {
  Database db(FlavorTraits::Postgres());
  db.txn_manager().locks().set_wait_timeout_seconds(0.05);
  DirectConnection holder(&db), waiter(&db);
  ASSERT_TRUE(holder.Execute("CREATE TABLE t (id INTEGER NOT NULL, v "
                             "INTEGER, PRIMARY KEY(id))")
                  .ok());
  ASSERT_TRUE(holder.Execute("INSERT INTO t (id, v) VALUES (1, 0)").ok());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Metrics& m = obs::Metrics::Get();
  const int64_t timeouts_before = reg.CounterValue(m.engine_lock_timeouts);
  const int64_t deadlocks_before = reg.CounterValue(m.engine_deadlock_aborts);

  // An idle holder: no cycle exists, only the failsafe can end the wait.
  ASSERT_TRUE(holder.Execute("BEGIN").ok());
  ASSERT_TRUE(holder.Execute("UPDATE t SET v = 1 WHERE id = 1").ok());
  auto r = waiter.Execute("UPDATE t SET v = 2 WHERE id = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsDeadlockAbort(r.status()));
  EXPECT_TRUE(r.status().IsRetryable());  // autocommit: safe to re-run
  ASSERT_TRUE(holder.Execute("COMMIT").ok());

  EXPECT_EQ(reg.CounterValue(m.engine_lock_timeouts), timeouts_before + 1);
  EXPECT_EQ(reg.CounterValue(m.engine_deadlock_aborts), deadlocks_before);
  EXPECT_EQ(db.txn_manager().locks().stats().timeouts, 1);
}

// Serial-vs-concurrent tracking completeness: the same 8-thread tracked
// workload, run once under the lock manager and once under the serial-mode
// global mutex, must record identical dependency metadata — every worker
// transaction reads the seed row, so every trans_dep row carries the seed
// writer's trid, and nothing lands in tracking_gaps.
void RunTrackedWorkload(Database* db, bool serial,
                        int64_t* dep_rows_with_seed, int64_t* gap_rows) {
  db->set_serial_mode(serial);
  proxy::TxnIdAllocator alloc;
  int64_t seed_trid = 0;
  {
    DirectConnection direct(db);
    proxy::TrackingProxy setup(&direct, &alloc, db->traits());
    ASSERT_TRUE(setup.EnsureTrackingTables().ok());
    ASSERT_TRUE(setup
                    .Execute("CREATE TABLE wseed (k INTEGER NOT NULL, v "
                             "INTEGER, PRIMARY KEY(k))")
                    .ok());
    auto r = setup.Execute("INSERT INTO wseed (k, v) VALUES (1, 42)");
    ASSERT_TRUE(r.ok());
    seed_trid = 1;  // first allocated trid: the seed insert's wrap
    for (int t = 0; t < 8; ++t) {
      ASSERT_TRUE(setup
                      .Execute("CREATE TABLE wt" + std::to_string(t) +
                               " (k INTEGER NOT NULL, v INTEGER, "
                               "PRIMARY KEY(k))")
                      .ok());
    }
  }
  constexpr int kTxnsPerThread = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([db, &alloc, t] {
      DirectConnection direct(db);
      proxy::TrackingProxy proxy(&direct, &alloc, db->traits());
      for (int i = 0; i < kTxnsPerThread; ++i) {
        ASSERT_TRUE(proxy.Execute("BEGIN").ok());
        auto sel = proxy.Execute("SELECT v FROM wseed WHERE k = 1");
        ASSERT_TRUE(sel.ok()) << sel.status().ToString();
        auto ins = proxy.Execute("INSERT INTO wt" + std::to_string(t) +
                                 " (k, v) VALUES (" + std::to_string(i) +
                                 ", " + std::to_string(i) + ")");
        ASSERT_TRUE(ins.ok()) << ins.status().ToString();
        proxy.SetAnnotation("w" + std::to_string(t));
        auto commit = proxy.Execute("COMMIT");
        ASSERT_TRUE(commit.ok()) << commit.status().ToString();
      }
    });
  }
  for (auto& th : threads) th.join();

  DirectConnection check(db);
  auto deps = check.Execute("SELECT dep_tr_ids FROM trans_dep");
  ASSERT_TRUE(deps.ok());
  int64_t with_seed = 0;
  const std::string token = "wseed:" + std::to_string(seed_trid);
  for (const auto& row : deps->rows) {
    if (row[0].as_string().find(token) != std::string::npos) ++with_seed;
  }
  *dep_rows_with_seed = with_seed;
  auto gaps = check.Execute("SELECT COUNT(*) FROM tracking_gaps");
  ASSERT_TRUE(gaps.ok());
  *gap_rows = gaps->rows[0][0].as_int();
}

TEST(ConcurrentEngineTest, TrackingCompletenessSerialVsConcurrent) {
  int64_t concurrent_deps = 0, concurrent_gaps = 0;
  {
    Database db(FlavorTraits::Postgres());
    RunTrackedWorkload(&db, /*serial=*/false, &concurrent_deps,
                       &concurrent_gaps);
  }
  int64_t serial_deps = 0, serial_gaps = 0;
  {
    Database db(FlavorTraits::Postgres());
    RunTrackedWorkload(&db, /*serial=*/true, &serial_deps, &serial_gaps);
  }
  // Every one of the 48 worker transactions read the seed row: complete
  // dependency capture regardless of interleaving.
  EXPECT_EQ(concurrent_deps, 8 * 6);
  EXPECT_EQ(serial_deps, concurrent_deps);
  EXPECT_EQ(concurrent_gaps, 0);
  EXPECT_EQ(serial_gaps, 0);
}

}  // namespace
}  // namespace irdb
