// Reenactment repair (DESIGN.md §5i): replay ordering, divergence demotion,
// the undo≡reenact equivalence on commuting histories, and parallel≡serial
// replay. The recurring oracle: a fresh deployment replaying the same
// history minus the omitted transactions — on histories whose innocents
// replay cleanly, reenactment must land on exactly "history minus seeds".
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/resilient_db.h"
#include "repair/reenact.h"
#include "repair/whatif.h"
#include "util/failpoint.h"

namespace irdb {
namespace {

// One tracked transaction: annotation label plus its statements.
struct Script {
  std::string label;
  std::vector<std::string> stmts;
};

ResultSet Must(DbConnection* conn, const std::string& sql) {
  auto r = conn->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : ResultSet{};
}

constexpr const char* kSchema =
    "CREATE TABLE account (id INTEGER NOT NULL, owner VARCHAR(16),"
    " balance DOUBLE)";
constexpr const char* kSeedRows =
    "INSERT INTO account(id, owner, balance) VALUES"
    " (1, 'alice', 100.0), (2, 'bob', 200.0), (3, 'carol', 300.0)";

// Runs schema + seed rows + every script except the indices in `skip` on a
// fresh deployment and returns its account-state fingerprint (trid stamps
// excluded — proxy ids differ across deployments).
uint64_t OracleHash(const std::vector<Script>& scripts,
                    const std::set<size_t>& skip, int repair_threads = 1) {
  DeploymentOptions opts;
  opts.repair_threads = repair_threads;
  ResilientDb rdb(opts);
  EXPECT_TRUE(rdb.Bootstrap().ok());
  auto conn = rdb.Connect();
  EXPECT_TRUE(conn.ok());
  Must(conn->get(), kSchema);
  Must(conn->get(), "BEGIN");
  (*conn)->SetAnnotation("Setup");
  Must(conn->get(), kSeedRows);
  Must(conn->get(), "COMMIT");
  for (size_t i = 0; i < scripts.size(); ++i) {
    if (skip.count(i)) continue;
    Must(conn->get(), "BEGIN");
    (*conn)->SetAnnotation(scripts[i].label);
    for (const std::string& s : scripts[i].stmts) Must(conn->get(), s);
    Must(conn->get(), "COMMIT");
  }
  return rdb.db().StateHash({"account"}, {"trid"});
}

// Deployment under test: same history, all scripts executed.
struct Fixture {
  explicit Fixture(const std::vector<Script>& scripts, int repair_threads = 1) {
    DeploymentOptions opts;
    opts.repair_threads = repair_threads;
    rdb = std::make_unique<ResilientDb>(opts);
    EXPECT_TRUE(rdb->Bootstrap().ok());
    auto c = rdb->Connect();
    EXPECT_TRUE(c.ok());
    conn = std::move(*c);
    Must(conn.get(), kSchema);
    Must(conn.get(), "BEGIN");
    conn->SetAnnotation("Setup");
    Must(conn.get(), kSeedRows);
    Must(conn.get(), "COMMIT");
    for (const Script& s : scripts) {
      Must(conn.get(), "BEGIN");
      conn->SetAnnotation(s.label);
      for (const std::string& stmt : s.stmts) Must(conn.get(), stmt);
      Must(conn.get(), "COMMIT");
    }
  }

  int64_t IdOf(const repair::DependencyAnalysis& analysis,
               const std::string& label) const {
    for (int64_t node : analysis.graph.nodes()) {
      if (analysis.graph.Label(node) == label) return node;
    }
    return -1;
  }

  std::unique_ptr<ResilientDb> rdb;
  std::unique_ptr<DbConnection> conn;
};

// Innocent dependents replay in ascending (commit) order within their
// component, so order-sensitive SQL-side recomputation lands on the value
// the history would have produced without the attack: ((100*2)+1) = 201,
// not 202 — and not the polluted ((1100*2)+1) the undo-only strategy would
// have destroyed wholesale.
TEST(ReenactTest, ReplayRecomputesDependentsInOrder) {
  const std::vector<Script> scripts = {
      {"Attack", {"UPDATE account SET balance = balance + 1000 WHERE id = 1"}},
      {"Double", {"UPDATE account SET balance = balance * 2 WHERE id = 1"}},
      {"Bump", {"UPDATE account SET balance = balance + 1 WHERE id = 1"}},
      {"Independent", {"UPDATE account SET balance = balance + 7 WHERE id = 3"}},
  };
  Fixture f(scripts);
  auto analysis = f.rdb->repair().Analyze();
  ASSERT_TRUE(analysis.ok());
  const int64_t attack = f.IdOf(*analysis, "Attack");
  ASSERT_GT(attack, 0);

  auto policy = repair::DbaPolicy::TrackEverything();
  auto report = f.rdb->repair().RepairReenact({attack}, policy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->closure.size(), 3u);  // attack + Double + Bump
  EXPECT_EQ(report->replayed.size(), 2u);
  EXPECT_TRUE(report->demoted.empty());
  EXPECT_EQ(report->diverged, 0);
  EXPECT_EQ(report->repair.undo_set, std::set<int64_t>{attack});

  ResultSet rs = Must(f.rdb->Admin(),
                      "SELECT balance FROM account WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 201.0);
  EXPECT_EQ(f.rdb->db().StateHash({"account"}, {"trid"}),
            OracleHash(scripts, {0}));
}

// A replayed SELECT whose row count differs from the journaled execution
// demotes its transaction — and everything downstream of it through kept
// edges — back to undo. Here the attack INSERTed the row the innocent
// queried, so after compensation the SELECT sees 0 rows instead of 1.
TEST(ReenactTest, DivergenceDemotesItsDownstreamClosure) {
  const std::vector<Script> scripts = {
      {"Attack",
       {"INSERT INTO account(id, owner, balance) VALUES (100, 'mallory',"
        " 9.0)"}},
      {"ReadsPlanted",
       {"SELECT balance FROM account WHERE id = 100",
        "UPDATE account SET balance = balance + 10 WHERE id = 2"}},
      {"Downstream",
       {"SELECT balance FROM account WHERE id = 2",
        "UPDATE account SET balance = balance + 1 WHERE id = 3"}},
  };
  Fixture f(scripts);
  auto analysis = f.rdb->repair().Analyze();
  ASSERT_TRUE(analysis.ok());
  const int64_t attack = f.IdOf(*analysis, "Attack");
  const int64_t reads_planted = f.IdOf(*analysis, "ReadsPlanted");
  const int64_t downstream = f.IdOf(*analysis, "Downstream");
  ASSERT_GT(attack, 0);
  ASSERT_GT(reads_planted, 0);
  ASSERT_GT(downstream, 0);

  auto policy = repair::DbaPolicy::TrackEverything();
  auto report = f.rdb->repair().RepairReenact({attack}, policy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_TRUE(report->replayed.empty());
  ASSERT_EQ(report->demoted.size(), 2u);
  EXPECT_EQ(report->demoted.at(reads_planted),
            repair::DemoteReason::kDiverged);
  EXPECT_EQ(report->demoted.at(downstream),
            repair::DemoteReason::kDownstream);
  EXPECT_EQ(report->diverged, 1);
  EXPECT_EQ(report->repair.undo_set,
            (std::set<int64_t>{attack, reads_planted, downstream}));
  // Final state: as if none of the three ever ran.
  EXPECT_EQ(f.rdb->db().StateHash({"account"}, {"trid"}),
            OracleHash(scripts, {0, 1, 2}));
}

// Empty closure (no seeds): nothing compensated, nothing replayed, state
// untouched.
TEST(ReenactTest, EmptyClosureIsANoOp) {
  const std::vector<Script> scripts = {
      {"Work", {"UPDATE account SET balance = balance + 5 WHERE id = 1"}},
  };
  Fixture f(scripts);
  const uint64_t before = f.rdb->db().StateHash({"account"}, {"trid"});
  auto policy = repair::DbaPolicy::TrackEverything();
  auto report = f.rdb->repair().RepairReenact({}, policy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->closure.empty());
  EXPECT_TRUE(report->replayed.empty());
  EXPECT_TRUE(report->demoted.empty());
  EXPECT_EQ(report->components, 0);
  EXPECT_EQ(report->stmts_replayed, 0);
  EXPECT_EQ(f.rdb->db().StateHash({"account"}, {"trid"}), before);
}

// On a commuting history (additive updates, count-stable SELECTs) the two
// strategies agree: reenactment's final state equals undo-only's state with
// the innocents' effects reapplied — i.e. "history minus the seed".
TEST(ReenactTest, MatchesUndoThenReapplyOnCommutingHistories) {
  std::vector<Script> scripts = {
      {"Attack", {"UPDATE account SET balance = balance + 1000 WHERE id = 1"}},
  };
  for (int j = 0; j < 6; ++j) {
    const int target = 1 + (j % 3);
    scripts.push_back(
        {"Innocent" + std::to_string(j),
         {"SELECT balance FROM account WHERE id = " + std::to_string(target),
          "UPDATE account SET balance = balance + " + std::to_string(j + 1) +
              " WHERE id = " + std::to_string(target)}});
  }
  Fixture f(scripts);
  auto analysis = f.rdb->repair().Analyze();
  ASSERT_TRUE(analysis.ok());
  const int64_t attack = f.IdOf(*analysis, "Attack");
  ASSERT_GT(attack, 0);

  auto policy = repair::DbaPolicy::TrackEverything();
  auto report = f.rdb->repair().RepairReenact({attack}, policy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->demoted.empty());
  EXPECT_EQ(report->repair.undo_set, std::set<int64_t>{attack});
  EXPECT_EQ(f.rdb->db().StateHash({"account"}, {"trid"}),
            OracleHash(scripts, {0}));
}

// Components (innocents touching disjoint accounts) replay concurrently at
// threads=8; the merged report and the final state must be identical to the
// serial replay's.
TEST(ReenactTest, ParallelReplayMatchesSerial) {
  std::vector<Script> scripts = {
      {"Attack", {"UPDATE account SET balance = balance + 1000"}},
  };
  for (int j = 0; j < 9; ++j) {
    const int target = 1 + (j % 3);
    scripts.push_back(
        {"Chain" + std::to_string(j),
         {"SELECT balance FROM account WHERE id = " + std::to_string(target),
          "UPDATE account SET balance = balance + " + std::to_string(j + 1) +
              " WHERE id = " + std::to_string(target)}});
  }
  Fixture serial(scripts, /*repair_threads=*/1);
  Fixture parallel(scripts, /*repair_threads=*/8);
  auto policy = repair::DbaPolicy::TrackEverything();

  auto sa = serial.rdb->repair().Analyze();
  ASSERT_TRUE(sa.ok());
  auto sr = serial.rdb->repair().RepairReenact(
      {serial.IdOf(*sa, "Attack")}, policy);
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();

  auto pa = parallel.rdb->repair().Analyze();
  ASSERT_TRUE(pa.ok());
  auto pr = parallel.rdb->repair().RepairReenact(
      {parallel.IdOf(*pa, "Attack")}, policy);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();

  // The one attack wrote all three accounts, so the nine chains split into
  // three per-account components, replayed on up to three lanes.
  EXPECT_EQ(sr->components, 3);
  EXPECT_EQ(pr->components, 3);
  EXPECT_EQ(sr->replay_lanes, 1);
  EXPECT_GT(pr->replay_lanes, 1);
  EXPECT_EQ(sr->replayed.size(), pr->replayed.size());
  EXPECT_EQ(sr->demoted.size(), pr->demoted.size());
  EXPECT_EQ(sr->stmts_replayed, pr->stmts_replayed);
  EXPECT_EQ(serial.rdb->db().StateHash({"account"}, {"trid"}),
            parallel.rdb->db().StateHash({"account"}, {"trid"}));
  EXPECT_EQ(serial.rdb->db().StateHash({"account"}, {"trid"}),
            OracleHash(scripts, {0}));
}

// A lane whose transaction runs out of deadlock retries lost a lock race
// with another lane; its component stops there and resumes alone after the
// lanes join, so nothing demotes. The failpoint forces that exhaustion
// once, on whichever lane evaluates it first.
TEST(ReenactTest, LaneOutOfDeadlockRetriesResumesInsteadOfDemoting) {
  std::vector<Script> scripts = {
      {"Attack", {"UPDATE account SET balance = balance + 1000"}},
  };
  for (int j = 0; j < 9; ++j) {
    const int target = 1 + (j % 3);
    scripts.push_back(
        {"Chain" + std::to_string(j),
         {"SELECT balance FROM account WHERE id = " + std::to_string(target),
          "UPDATE account SET balance = balance + " + std::to_string(j + 1) +
              " WHERE id = " + std::to_string(target)}});
  }
  Fixture serial(scripts, /*repair_threads=*/1);
  Fixture parallel(scripts, /*repair_threads=*/8);
  auto policy = repair::DbaPolicy::TrackEverything();

  auto sa = serial.rdb->repair().Analyze();
  ASSERT_TRUE(sa.ok());
  auto sr = serial.rdb->repair().RepairReenact(
      {serial.IdOf(*sa, "Attack")}, policy);
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();

  auto pa = parallel.rdb->repair().Analyze();
  ASSERT_TRUE(pa.ok());
  fail::Registry& failpoints = fail::Registry::Instance();
  failpoints.Arm("reenact.lane.deadlock", fail::Trigger::OneShot());
  auto pr = parallel.rdb->repair().RepairReenact(
      {parallel.IdOf(*pa, "Attack")}, policy);
  const fail::SiteStats fired = failpoints.Stats("reenact.lane.deadlock");
  failpoints.DisarmAll();
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();

  EXPECT_EQ(fired.hits, 1);
  EXPECT_GT(pr->replay_lanes, 1);
  EXPECT_TRUE(sr->demoted.empty());
  EXPECT_EQ(sr->replayed, pr->replayed);
  EXPECT_EQ(sr->demoted, pr->demoted);
  EXPECT_EQ(sr->stmts_replayed, pr->stmts_replayed);
  EXPECT_EQ(serial.rdb->db().StateHash({"account"}, {"trid"}),
            parallel.rdb->db().StateHash({"account"}, {"trid"}));
}

// Repair() dispatches on DbaPolicy::strategy(): under kReenact the returned
// RepairReport's undo_set is what STAYED undone (the seed), not the closure.
TEST(ReenactTest, RepairDispatchesOnPolicyStrategy) {
  const std::vector<Script> scripts = {
      {"Attack", {"UPDATE account SET balance = balance + 1000 WHERE id = 1"}},
      {"Innocent",
       {"SELECT balance FROM account WHERE id = 1",
        "UPDATE account SET balance = balance + 5 WHERE id = 1"}},
  };
  Fixture f(scripts);
  auto analysis = f.rdb->repair().Analyze();
  ASSERT_TRUE(analysis.ok());
  const int64_t attack = f.IdOf(*analysis, "Attack");
  ASSERT_GT(attack, 0);

  auto policy = repair::DbaPolicy::TrackEverything().WithStrategy(
      repair::RepairStrategy::kReenact);
  auto report = f.rdb->repair().Repair({attack}, policy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->undo_set, std::set<int64_t>{attack});
  EXPECT_EQ(f.rdb->db().StateHash({"account"}, {"trid"}),
            OracleHash(scripts, {0}));
}

// The statement journal only exposes sealed (committed) transactions:
// rollback discards, DDL is not journaled, and the captured text is the
// post-rewrite statement the engine actually ran.
TEST(ReenactTest, StmtJournalSealsOnCommitDiscardsOnRollback) {
  DeploymentOptions opts;
  ResilientDb rdb(opts);
  ASSERT_TRUE(rdb.Bootstrap().ok());
  DbConnection* admin = rdb.Admin();
  Must(admin, "CREATE TABLE t (id INTEGER, v INTEGER)");
  const int64_t base = rdb.db().stmt_journal().committed_stmts();

  Must(admin, "BEGIN");
  Must(admin, "INSERT INTO t(id, v) VALUES (1, 10)");
  Must(admin, "ROLLBACK");
  EXPECT_EQ(rdb.db().stmt_journal().committed_stmts(), base);

  Must(admin, "BEGIN");
  Must(admin, "INSERT INTO t(id, v) VALUES (1, 10)");
  Must(admin, "UPDATE t SET v = v + 1 WHERE id = 1");
  Must(admin, "COMMIT");
  EXPECT_EQ(rdb.db().stmt_journal().committed_stmts(), base + 2);
}

// The what-if tool previews the replay plan without touching the database:
// seeds stay undone, journaled innocents replay, and the summary counts the
// split — before the DBA commits to a strategy.
TEST(ReenactTest, WhatIfPreviewsReplayPlan) {
  const std::vector<Script> scripts = {
      {"Attack", {"UPDATE account SET balance = balance + 1000 WHERE id = 1"}},
      {"Innocent",
       {"SELECT balance FROM account WHERE id = 1",
        "UPDATE account SET balance = balance + 5 WHERE id = 1"}},
  };
  Fixture f(scripts);
  auto analysis = f.rdb->repair().Analyze();
  ASSERT_TRUE(analysis.ok());
  const uint64_t before = f.rdb->db().StateHash({"account"}, {"trid"});

  repair::WhatIfSession session(std::move(*analysis));
  ASSERT_EQ(session.AddSeedsByLabelPrefix("Attack"), 1);
  const std::string preview =
      session.PreviewReenact(f.rdb->db().stmt_journal());
  EXPECT_NE(preview.find("Attack  [seed: stays undone]"), std::string::npos)
      << preview;
  EXPECT_NE(preview.find("Innocent  [replay: component 0]"),
            std::string::npos)
      << preview;
  EXPECT_NE(preview.find("reenact would undo 1 of 2"), std::string::npos)
      << preview;
  EXPECT_EQ(f.rdb->db().StateHash({"account"}, {"trid"}), before);
}

}  // namespace
}  // namespace irdb
