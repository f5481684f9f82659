// Serve-through repair: quarantine gate + online-repair edge cases
// (DESIGN.md §5g).
//
// Covers the QuarantineManager slice semantics, the engine's lock-plan
// gate (clean keys keep flowing, quarantined slices get retryable
// kUnavailable), the open-transaction pin-abort path (no deadlock against
// the repair's drain), and the RepairOnline edge cases from the issue:
// empty closure (no-op, quarantine never visible afterwards), whole-table
// closure, overlapping repairs rejected with a clear status, online repair
// converging to the same state as offline repair (and counted like it), and
// a failing lane keeping its table fenced.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/quarantine.h"
#include "core/resilient_db.h"
#include "engine/database.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "repair/repair_engine.h"
#include "wire/connection.h"

namespace irdb {
namespace {

using concurrency::LockMode;
using concurrency::LockModeName;
using concurrency::QuarantineManager;
using concurrency::QuarantineSlice;
using concurrency::ResourceId;

constexpr LockMode kIS = LockMode::kIntentionShared;
constexpr LockMode kIX = LockMode::kIntentionExclusive;
constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kSIX = LockMode::kSharedIntentionExclusive;
constexpr LockMode kX = LockMode::kExclusive;

ResultSet Must(DbConnection* conn, const std::string& sql) {
  auto r = conn->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : ResultSet{};
}

bool IsQuarantineReject(const Status& s) {
  return s.code() == StatusCode::kUnavailable &&
         s.message().rfind(kQuarantineTag, 0) == 0;
}

// ------------------------------------------------------- manager semantics

TEST(QuarantineManagerTest, SingleClaimUntilEnd) {
  QuarantineManager qm;
  EXPECT_FALSE(qm.active());
  ASSERT_TRUE(qm.Begin().ok());
  EXPECT_TRUE(qm.active());
  Status second = qm.Begin();
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
  qm.End();
  EXPECT_FALSE(qm.active());
  EXPECT_TRUE(qm.Begin().ok());  // claim reusable after release
  qm.End();
}

// A key slice as its lock path: the table, the enclosing prefix granules,
// then the key.
QuarantineSlice KeySlice(int32_t table, std::vector<ResourceId> prefixes,
                         uint64_t key_hash) {
  QuarantineSlice slice{{ResourceId::Table(table)}};
  for (const ResourceId& p : prefixes) slice.path.push_back(p);
  slice.path.push_back(ResourceId::Key(table, key_hash));
  return slice;
}

TEST(QuarantineManagerTest, BlocksFollowsSliceGranularity) {
  QuarantineManager qm;
  ASSERT_TRUE(qm.Begin().ok());
  // A key of table 1, all of table 2.
  qm.Add({KeySlice(1, {}, 10), QuarantineSlice::WholeTable(2)});

  // Key slice: own key and granule-covering table locks conflict;
  // intention modes and other keys pass (their key locks are checked on
  // their own).
  EXPECT_TRUE(qm.Blocks(ResourceId::Key(1, 10), kX));
  EXPECT_TRUE(qm.Blocks(ResourceId::Key(1, 10), kS));
  EXPECT_FALSE(qm.Blocks(ResourceId::Key(1, 12), kX));
  EXPECT_TRUE(qm.Blocks(ResourceId::Table(1), kS));
  EXPECT_TRUE(qm.Blocks(ResourceId::Table(1), kSIX));
  EXPECT_TRUE(qm.Blocks(ResourceId::Table(1), kX));
  EXPECT_FALSE(qm.Blocks(ResourceId::Table(1), kIS));
  EXPECT_FALSE(qm.Blocks(ResourceId::Table(1), kIX));

  // Whole-table slice: everything on the table conflicts.
  EXPECT_TRUE(qm.Blocks(ResourceId::Table(2), kIS));
  EXPECT_TRUE(qm.Blocks(ResourceId::Table(2), kIX));
  EXPECT_TRUE(qm.Blocks(ResourceId::Prefix(2, 1, 5), kIS));
  EXPECT_TRUE(qm.Blocks(ResourceId::Key(2, 99), kS));

  // Unrelated table untouched.
  EXPECT_FALSE(qm.Blocks(ResourceId::Table(3), kX));
  EXPECT_FALSE(qm.Blocks(ResourceId::Key(3, 10), kX));

  // Incremental release: key first, then the whole table.
  EXPECT_EQ(qm.ReleaseKey(ResourceId::Key(1, 10)), 1);
  EXPECT_FALSE(qm.Blocks(ResourceId::Key(1, 10), kX));
  EXPECT_EQ(qm.ReleaseKey(ResourceId::Key(1, 12)), 0);  // never installed
  EXPECT_EQ(qm.ReleaseTable(2), 1);
  EXPECT_FALSE(qm.Blocks(ResourceId::Table(2), kIX));

  const concurrency::QuarantineStats st = qm.stats();
  EXPECT_TRUE(st.active);
  EXPECT_EQ(st.slices, 0);
  EXPECT_EQ(st.installed_total, 2);
  EXPECT_EQ(st.released_total, 2);
  qm.End();
}

// customer(w, d, c) with key (1,1,7) fenced: its lock path runs through
// the warehouse granule (w=1) and the district granule (w=1,d=1).
struct FencedCustomer {
  static constexpr int32_t kTable = 5;
  const ResourceId w1 = ResourceId::Prefix(kTable, 1, 100);
  const ResourceId w1d1 = ResourceId::Prefix(kTable, 2, 110);
  const ResourceId w1d2 = ResourceId::Prefix(kTable, 2, 120);  // sibling
  const ResourceId key = ResourceId::Key(kTable, 117);
  QuarantineSlice slice() const { return KeySlice(kTable, {w1, w1d1}, 117); }
};

TEST(QuarantineManagerTest, BlocksGranuleCoveringModesOnAncestorPrefixes) {
  const FencedCustomer c;
  QuarantineManager qm;
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({c.slice()});

  // S, SIX and X on an enclosing prefix read or write the fenced row.
  for (LockMode m : {kS, kSIX, kX}) {
    EXPECT_TRUE(qm.Blocks(c.w1, m)) << LockModeName(m);
    EXPECT_TRUE(qm.Blocks(c.w1d1, m)) << LockModeName(m);
    // The sibling district encloses no fenced key.
    EXPECT_FALSE(qm.Blocks(c.w1d2, m)) << LockModeName(m);
  }
  // Intention modes only announce finer locks, judged on their own.
  for (LockMode m : {kIS, kIX}) {
    EXPECT_FALSE(qm.Blocks(c.w1, m)) << LockModeName(m);
    EXPECT_FALSE(qm.Blocks(c.w1d1, m)) << LockModeName(m);
  }
  EXPECT_TRUE(qm.Blocks(c.key, kS));
  EXPECT_FALSE(qm.Blocks(ResourceId::Key(FencedCustomer::kTable, 118), kX));
  // Same depth and hash in another table: a different granule.
  EXPECT_FALSE(qm.Blocks(ResourceId::Prefix(6, 2, 110), kX));

  // A second fenced key in the sibling district shares the warehouse
  // granule; releasing the first frees only its own district.
  qm.Add({KeySlice(FencedCustomer::kTable, {c.w1, c.w1d2}, 127)});
  EXPECT_EQ(qm.ReleaseKey(c.key), 1);
  EXPECT_FALSE(qm.Blocks(c.w1d1, kS));
  EXPECT_TRUE(qm.Blocks(c.w1d2, kS));
  EXPECT_TRUE(qm.Blocks(c.w1, kS));
  qm.End();
}

TEST(QuarantineManagerTest, DrainPlanTakesAncestorIntentionsRootToLeaf) {
  const FencedCustomer c;
  QuarantineManager qm;
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({c.slice()});
  using Entry = std::pair<ResourceId, LockMode>;
  const std::vector<Entry> want = {
      {ResourceId::Table(FencedCustomer::kTable), kIX},
      {c.w1, kIX},
      {c.w1d1, kIX},
      {c.key, kX}};
  EXPECT_EQ(qm.DrainPlan(), want);
  qm.End();
}

TEST(QuarantineManagerTest, WholeTableSubsumesBucketsAndDrainPlan) {
  QuarantineManager qm;
  ASSERT_TRUE(qm.Begin().ok());
  EXPECT_EQ(qm.Add({KeySlice(4, {}, 6)}), 1);
  EXPECT_EQ(qm.Add({KeySlice(4, {}, 6)}), 0);  // duplicate ignored
  EXPECT_EQ(qm.Add({QuarantineSlice::WholeTable(4)}), 1);  // subsumes key
  EXPECT_EQ(qm.stats().slices, 1);

  auto plan = qm.DrainPlan();
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].second, kX);  // whole table → table X
  qm.End();
  EXPECT_EQ(qm.stats().slices, 0);
}

// ----------------------------------------------------------- engine gate

class QuarantineGateTest : public ::testing::Test {
 protected:
  QuarantineGateTest() : db_(FlavorTraits::Sybase()) {}

  void Seed() {
    DirectConnection conn(&db_);
    Must(&conn, "CREATE TABLE account (id INTEGER, owner VARCHAR(16),"
                " balance DOUBLE, PRIMARY KEY (id))");
    Must(&conn, "INSERT INTO account(id, owner, balance) VALUES"
                " (1, 'alice', 100.0), (2, 'bob', 200.0), (3, 'carol', 300.0)");
  }

  // customer(w, d, c): two districts of warehouse 1, three customers each.
  void SeedCustomers() {
    DirectConnection conn(&db_);
    Must(&conn, "CREATE TABLE cust (w INTEGER, d INTEGER, c INTEGER,"
                " bal DOUBLE, PRIMARY KEY (w, d, c))");
    Must(&conn, "INSERT INTO cust(w, d, c, bal) VALUES"
                " (1, 1, 1, 10.0), (1, 1, 2, 20.0), (1, 1, 3, 30.0),"
                " (1, 2, 1, 40.0), (1, 2, 2, 50.0), (1, 2, 3, 60.0)");
  }

  // The slice fencing one row, named by the planner's own lock path.
  QuarantineSlice SliceOf(
      const std::string& table,
      const std::vector<std::pair<std::string, Value>>& key) {
    auto path = db_.KeyLockPath(table, key);
    EXPECT_TRUE(path.has_value());
    if (!path.has_value()) return QuarantineSlice::WholeTable(-1);
    return QuarantineSlice{std::move(*path)};
  }
  QuarantineSlice SliceOf(int id) {
    return SliceOf("account", {{"id", Value::Int(id)}});
  }
  QuarantineSlice CustomerSlice(int w, int d, int c) {
    return SliceOf("cust", {{"w", Value::Int(w)},
                            {"d", Value::Int(d)},
                            {"c", Value::Int(c)}});
  }

  Database db_;
};

TEST_F(QuarantineGateTest, RejectsQuarantinedSliceServesCleanKeys) {
  Seed();
  auto& qm = db_.quarantine();
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({SliceOf(1)});

  DirectConnection conn(&db_);
  // Quarantined key: retryable, tagged, nothing executed.
  auto hit = conn.Execute("UPDATE account SET balance = 0 WHERE id = 1");
  ASSERT_FALSE(hit.ok());
  EXPECT_TRUE(IsQuarantineReject(hit.status())) << hit.status().ToString();
  EXPECT_TRUE(hit.status().IsRetryable());

  // Clean key in the same table: point write and point read both pass.
  Must(&conn, "UPDATE account SET balance = 250 WHERE id = 2");
  ResultSet rs = Must(&conn, "SELECT balance FROM account WHERE id = 2");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 250.0);

  // Full scans take table S and must wait out the repair.
  auto scan = conn.Execute("SELECT * FROM account");
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(IsQuarantineReject(scan.status()));

  // Sessions marked exempt (the repair's own lanes) bypass the gate.
  DirectConnection lane(&db_);
  db_.SetSessionQuarantineExempt(lane.session_id(), true);
  Must(&lane, "UPDATE account SET balance = 111 WHERE id = 1");

  qm.End();
  EXPECT_GE(qm.stats().rejects_total, 2);

  // Gate fully open again.
  rs = Must(&conn, "SELECT balance FROM account WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 111.0);
}

TEST_F(QuarantineGateTest, OpenTxnPinningSliceAbortsRetryablyNotDeadlock) {
  Seed();
  DirectConnection pinner(&db_);
  Must(&pinner, "BEGIN");
  // Holds key X on id=1 when the quarantine arrives.
  Must(&pinner, "UPDATE account SET balance = balance + 5 WHERE id = 1");

  auto& qm = db_.quarantine();
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({SliceOf(1)});

  // Its next statement — even one touching only clean keys — must be turned
  // away and the whole transaction rolled back, releasing the pinned lock.
  auto next = pinner.Execute("UPDATE account SET balance = 1 WHERE id = 3");
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(IsQuarantineReject(next.status())) << next.status().ToString();
  EXPECT_TRUE(next.status().IsRetryable());

  // ROLLBACK acknowledges the forced abort without error.
  EXPECT_TRUE(pinner.Execute("ROLLBACK").ok());

  // The pinned lock is gone: a repair-lane connection can X the slice
  // immediately — no deadlock, no wait on the dead transaction.
  DirectConnection lane(&db_);
  db_.SetSessionQuarantineExempt(lane.session_id(), true);
  Must(&lane, "UPDATE account SET balance = 100 WHERE id = 1");

  // The aborted session keeps serving clean keys while the repair runs.
  Must(&pinner, "BEGIN");
  Must(&pinner, "UPDATE account SET balance = 42 WHERE id = 3");
  Must(&pinner, "COMMIT");

  qm.End();
  ResultSet rs = Must(&pinner, "SELECT balance FROM account WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 100.0);  // rollback held
}

TEST_F(QuarantineGateTest, DropTableOfQuarantinedSliceRejected) {
  Seed();
  {
    DirectConnection conn(&db_);
    Must(&conn, "CREATE TABLE scratch (a INTEGER)");
  }
  auto& qm = db_.quarantine();
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({SliceOf(1)});

  DirectConnection conn(&db_);
  auto drop = conn.Execute("DROP TABLE account");
  ASSERT_FALSE(drop.ok());
  EXPECT_TRUE(IsQuarantineReject(drop.status()));
  Must(&conn, "DROP TABLE scratch");  // unrelated DDL unaffected
  qm.End();
  Must(&conn, "DROP TABLE account");
}

TEST_F(QuarantineGateTest, PrefixScanOfCleanDistrictServedInFencedTable) {
  SeedCustomers();
  auto& qm = db_.quarantine();
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({CustomerSlice(1, 1, 2)});

  DirectConnection conn(&db_);
  // A clean district of the same warehouse: S on its prefix granule only.
  ResultSet rs = Must(&conn, "SELECT c, bal FROM cust WHERE w = 1 AND d = 2");
  EXPECT_EQ(rs.rows.size(), 3u);

  // The fenced district and the warehouse enclosing it read the fenced
  // row, and so does a prefix write on the district.
  for (const char* sql : {"SELECT c FROM cust WHERE w = 1 AND d = 1",
                          "SELECT c FROM cust WHERE w = 1",
                          "SELECT c FROM cust",
                          "UPDATE cust SET bal = 0 WHERE w = 1 AND d = 1"}) {
    auto r = conn.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(IsQuarantineReject(r.status())) << r.status().ToString();
  }
  // A clean key inside the fenced district passes.
  Must(&conn, "UPDATE cust SET bal = 35 WHERE w = 1 AND d = 1 AND c = 3");
  auto fenced =
      conn.Execute("SELECT bal FROM cust WHERE w = 1 AND d = 1 AND c = 2");
  EXPECT_TRUE(IsQuarantineReject(fenced.status()));
  qm.End();
}

TEST_F(QuarantineGateTest, OpenTxnHoldingAncestorPrefixIsEvicted) {
  SeedCustomers();
  // One reader holds S on the district granule enclosing the row about to
  // be fenced, another on the sibling district.
  DirectConnection pinner(&db_), sibling(&db_);
  Must(&pinner, "BEGIN");
  Must(&pinner, "SELECT c FROM cust WHERE w = 1 AND d = 1");
  Must(&sibling, "BEGIN");
  Must(&sibling, "SELECT c FROM cust WHERE w = 1 AND d = 2");

  auto& qm = db_.quarantine();
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({CustomerSlice(1, 1, 2)});
  EXPECT_EQ(db_.EvictQuarantinePinnedTxns(), 1);

  // The evicted transaction is gone: retryable quarantine status until
  // ROLLBACK acknowledges it.
  auto next = pinner.Execute("SELECT c FROM cust WHERE w = 1 AND d = 2");
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(IsQuarantineReject(next.status())) << next.status().ToString();
  EXPECT_TRUE(pinner.Execute("ROLLBACK").ok());
  // The sibling-district reader kept its transaction.
  Must(&sibling, "SELECT bal FROM cust WHERE w = 1 AND d = 2 AND c = 1");
  Must(&sibling, "COMMIT");
  qm.End();
}

// ------------------------------------------------------ RepairOnline edges

struct Deployment {
  explicit Deployment(ProxyArch arch = ProxyArch::kSingleProxy) {
    DeploymentOptions opts;
    opts.traits = FlavorTraits::Sybase();
    opts.arch = arch;
    rdb = std::make_unique<ResilientDb>(opts);
    EXPECT_TRUE(rdb->Bootstrap().ok());
    auto c = rdb->Connect();
    EXPECT_TRUE(c.ok());
    conn = std::move(c).value();
  }

  // Bank history with a PK'd table: attack on id=1, dependent transfer to
  // id=2, independent raise on id=3.
  void RunBankHistory() {
    Must(conn.get(), "CREATE TABLE account (id INTEGER, owner VARCHAR(16),"
                     " balance DOUBLE, PRIMARY KEY (id))");
    Must(conn.get(), "BEGIN");
    conn->SetAnnotation("Setup");
    Must(conn.get(), "INSERT INTO account(id, owner, balance) VALUES"
                     " (1, 'alice', 100.0), (2, 'bob', 200.0),"
                     " (3, 'carol', 300.0)");
    Must(conn.get(), "COMMIT");

    Must(conn.get(), "BEGIN");
    conn->SetAnnotation("Attack");
    Must(conn.get(),
         "UPDATE account SET balance = balance + 1000 WHERE id = 1");
    Must(conn.get(), "COMMIT");

    Must(conn.get(), "BEGIN");
    conn->SetAnnotation("Dependent");
    ResultSet bal =
        Must(conn.get(), "SELECT balance FROM account WHERE id = 1");
    EXPECT_EQ(bal.rows.size(), 1u);
    Must(conn.get(),
         "UPDATE account SET balance = balance + 50 WHERE id = 2");
    Must(conn.get(), "COMMIT");

    Must(conn.get(), "BEGIN");
    conn->SetAnnotation("Independent");
    Must(conn.get(),
         "UPDATE account SET balance = balance + 7 WHERE id = 3");
    Must(conn.get(), "COMMIT");
  }

  int64_t FindByLabel(const std::string& label) {
    auto analysis = rdb->repair().Analyze();
    EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
    if (!analysis.ok()) return -1;
    for (int64_t node : analysis->graph.nodes()) {
      if (analysis->graph.Label(node) == label) return node;
    }
    return -1;
  }

  uint64_t Hash(const std::vector<std::string>& tables) {
    return rdb->db().StateHash(tables, {"trid", "rid"});
  }

  std::unique_ptr<ResilientDb> rdb;
  std::unique_ptr<DbConnection> conn;
};

TEST(RepairOnlineTest, EmptyClosureIsNoopAndReleasesEverything) {
  Deployment d;
  d.RunBankHistory();
  const uint64_t before = d.Hash({"account"});

  auto policy = repair::DbaPolicy::TrackEverything();
  auto rep = d.rdb->repair().RepairOnline({}, policy);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->rounds, 1);
  EXPECT_EQ(rep->slices_installed, 0);
  EXPECT_EQ(rep->lanes, 0);
  EXPECT_EQ(rep->repair.undo_set.size(), 0u);

  // The claim is gone and the state untouched: traffic flows as if the
  // repair never happened.
  EXPECT_FALSE(d.rdb->db().quarantine().active());
  EXPECT_EQ(d.Hash({"account"}), before);
  Must(d.conn.get(), "UPDATE account SET balance = balance WHERE id = 1");

  // A second online repair can claim the slot right away.
  auto again = d.rdb->repair().RepairOnline({}, policy);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST(RepairOnlineTest, OverlappingRepairsRejectedWithClearStatus) {
  Deployment d;
  d.RunBankHistory();
  const int64_t attack = d.FindByLabel("Attack");
  ASSERT_GT(attack, 0);
  auto policy = repair::DbaPolicy::TrackEverything();

  // Another repair holds the quarantine: the second claimant is told
  // exactly why it cannot start, and nothing is healed behind the first
  // one's back.
  ASSERT_TRUE(d.rdb->db().quarantine().Begin().ok());
  auto rep = d.rdb->repair().RepairOnline({attack}, policy);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kFailedPrecondition);
  d.rdb->db().quarantine().End();

  // With the slot free the same request goes through.
  auto rep2 = d.rdb->repair().RepairOnline({attack}, policy);
  ASSERT_TRUE(rep2.ok()) << rep2.status().ToString();
  EXPECT_GE(rep2->slices_installed, 1);
  EXPECT_EQ(rep2->slices_released, rep2->slices_installed);
  EXPECT_FALSE(d.rdb->db().quarantine().active());
}

TEST(RepairOnlineTest, KeyedClosureMatchesOfflineRepair) {
  Deployment online, offline;
  online.RunBankHistory();
  offline.RunBankHistory();
  auto policy = repair::DbaPolicy::TrackEverything();

  const int64_t on_attack = online.FindByLabel("Attack");
  const int64_t off_attack = offline.FindByLabel("Attack");
  ASSERT_GT(on_attack, 0);
  ASSERT_GT(off_attack, 0);

  auto off = offline.rdb->repair().Repair({off_attack}, policy);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  const obs::MetricId compensations =
      obs::Metrics::Get().repair_compensations;
  const int64_t counted_before = obs::CounterValue(compensations);
  auto on = online.rdb->repair().RepairOnline({on_attack}, policy);
  ASSERT_TRUE(on.ok()) << on.status().ToString();

  // Online compensation is accounted like offline compensation.
  const int64_t counted = obs::CounterValue(compensations) - counted_before;
  EXPECT_GT(counted, 0);
  EXPECT_EQ(counted, on->repair.ops_compensated);
  EXPECT_EQ(counted, online.rdb->repair().phase_stats().compensate_stmts);

  // Same undo set, same healed state — serve-through changes availability,
  // not the repair's outcome.
  EXPECT_EQ(on->repair.undo_set, off->undo_set);
  EXPECT_EQ(online.Hash({"account"}), offline.Hash({"account"}));
  // The PK'd table quarantines at bucket granularity, and every slice
  // installed was released on the way out.
  EXPECT_GE(on->key_slices, 1);
  EXPECT_EQ(on->fallback_whole_tables, 0);
  EXPECT_EQ(on->slices_released, on->slices_installed);
  EXPECT_FALSE(online.rdb->db().quarantine().active());

  ResultSet rs =
      Must(online.conn.get(), "SELECT balance FROM account WHERE id = 3");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 307.0);  // independent kept
}

TEST(RepairOnlineTest, TableWithoutKeyQuarantinesWholeTable) {
  Deployment d;
  // No PRIMARY KEY: the partition cannot be sliced below the table.
  Must(d.conn.get(), "CREATE TABLE blob (tag INTEGER, note VARCHAR(16))");
  Must(d.conn.get(), "BEGIN");
  d.conn->SetAnnotation("Setup");
  Must(d.conn.get(), "INSERT INTO blob(tag, note) VALUES (1, 'keep')");
  Must(d.conn.get(), "COMMIT");
  const uint64_t clean = d.Hash({"blob"});

  Must(d.conn.get(), "BEGIN");
  d.conn->SetAnnotation("Attack");
  Must(d.conn.get(), "INSERT INTO blob(tag, note) VALUES (2, 'forged')");
  Must(d.conn.get(), "COMMIT");

  const int64_t attack = d.FindByLabel("Attack");
  ASSERT_GT(attack, 0);
  auto rep = d.rdb->repair().RepairOnline(
      {attack}, repair::DbaPolicy::TrackEverything());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_GE(rep->whole_table_slices, 1);
  EXPECT_GE(rep->fallback_whole_tables, 1);
  EXPECT_EQ(rep->slices_released, rep->slices_installed);
  EXPECT_FALSE(d.rdb->db().quarantine().active());
  EXPECT_EQ(d.Hash({"blob"}), clean);
}

// The header contract on a lane failure: the failing table stays fenced
// and the claim stays held, while every other table is healed and
// released. An untracked DELETE removes the row the attack's update on `a`
// addressed, so `a`'s lane touches 0 rows.
TEST(RepairOnlineTest, FailingLaneKeepsItsTableFenced) {
  Deployment d;
  for (const char* table : {"a", "b"}) {
    Must(d.conn.get(), std::string("CREATE TABLE ") + table +
                           " (id INTEGER, v INTEGER, PRIMARY KEY (id))");
  }
  Must(d.conn.get(), "BEGIN");
  d.conn->SetAnnotation("Setup");
  Must(d.conn.get(), "INSERT INTO a(id, v) VALUES (1, 10), (2, 20)");
  Must(d.conn.get(), "INSERT INTO b(id, v) VALUES (1, 10), (2, 20)");
  Must(d.conn.get(), "COMMIT");
  Must(d.conn.get(), "BEGIN");
  d.conn->SetAnnotation("Attack");
  Must(d.conn.get(), "UPDATE a SET v = 11 WHERE id = 1");
  Must(d.conn.get(), "UPDATE b SET v = 11 WHERE id = 1");
  Must(d.conn.get(), "COMMIT");
  DirectConnection untracked(&d.rdb->db());
  Must(&untracked, "DELETE FROM a WHERE id = 1");

  const int64_t attack = d.FindByLabel("Attack");
  ASSERT_GT(attack, 0);
  auto rep = d.rdb->repair().RepairOnline(
      {attack}, repair::DbaPolicy::TrackEverything());
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInternal)
      << rep.status().ToString();

  // `a` (fenced whole: its updated row no longer resolves) stays fenced.
  const auto stats = d.rdb->db().quarantine().stats();
  EXPECT_TRUE(stats.active);
  EXPECT_EQ(stats.slices, 1);
  auto read_a = d.conn->Execute("SELECT v FROM a WHERE id = 2");
  EXPECT_TRUE(IsQuarantineReject(read_a.status()))
      << read_a.status().ToString();

  // `b` is healed and served again.
  ResultSet b = Must(d.conn.get(), "SELECT v FROM b WHERE id = 1");
  ASSERT_EQ(b.rows.size(), 1u);
  EXPECT_EQ(b.rows[0][0].as_int(), 10);
  d.rdb->db().quarantine().End();
}

// A live session that pinned a quarantined key must be evicted by
// RepairOnline itself (gate + drain), not deadlock the repair — and its
// client recovers with ROLLBACK + retry once the slice is released.
TEST(RepairOnlineTest, ServesThroughWhileEvictingPinnedTxn) {
  Deployment d;
  d.RunBankHistory();
  const int64_t attack = d.FindByLabel("Attack");
  ASSERT_GT(attack, 0);

  // Second client parks an open transaction on the contaminated key.
  auto pin_or = d.rdb->Connect();
  ASSERT_TRUE(pin_or.ok());
  DbConnection* pin = pin_or->get();
  Must(pin, "BEGIN");
  Must(pin, "UPDATE account SET balance = balance + 1 WHERE id = 1");

  auto rep = d.rdb->repair().RepairOnline(
      {attack}, repair::DbaPolicy::TrackEverything());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_FALSE(d.rdb->db().quarantine().active());

  // The pinned transaction was forcibly rolled back; the proxy surfaces the
  // retryable failure on its next use and recovers after ROLLBACK.
  auto next = pin->Execute("UPDATE account SET balance = 9 WHERE id = 3");
  if (!next.ok()) {
    EXPECT_TRUE(next.status().IsRetryable()) << next.status().ToString();
    (void)pin->Execute("ROLLBACK");
    Must(pin, "UPDATE account SET balance = 9 WHERE id = 3");
  }
  ResultSet rs = Must(pin, "SELECT balance FROM account WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 100.0);  // healed, +1 undone
}

}  // namespace
}  // namespace irdb
