// Engine-level SQL execution tests: CRUD, joins, aggregates, ordering,
// NULL semantics, transactions and rollback.
#include <gtest/gtest.h>

#include "engine/database.h"

namespace irdb {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : db_(FlavorTraits::Postgres()) {}

  ResultSet Must(const std::string& sql) {
    auto r = db_.Execute(0, sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultSet{};
  }

  Status Fails(const std::string& sql) {
    auto r = db_.Execute(0, sql);
    EXPECT_FALSE(r.ok()) << sql << " unexpectedly succeeded";
    return r.ok() ? Status::Ok() : r.status();
  }

  Database db_;
};

TEST_F(EngineTest, CreateInsertSelect) {
  Must("CREATE TABLE t (a INTEGER, b VARCHAR(10), c DOUBLE)");
  Must("INSERT INTO t(a, b, c) VALUES (1, 'one', 1.5)");
  Must("INSERT INTO t(a, b, c) VALUES (2, 'two', 2.5), (3, 'three', 3.5)");
  ResultSet rs = Must("SELECT a, b, c FROM t ORDER BY a");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  EXPECT_EQ(rs.rows[1][1].as_string(), "two");
  EXPECT_DOUBLE_EQ(rs.rows[2][2].as_double(), 3.5);
}

TEST_F(EngineTest, SelectStar) {
  Must("CREATE TABLE t (a INTEGER, b VARCHAR(4))");
  Must("INSERT INTO t(a, b) VALUES (7, 'x')");
  ResultSet rs = Must("SELECT * FROM t");
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 7);
}

TEST_F(EngineTest, WhereFiltering) {
  Must("CREATE TABLE t (a INTEGER, b INTEGER)");
  for (int i = 1; i <= 10; ++i) {
    Must("INSERT INTO t(a, b) VALUES (" + std::to_string(i) + ", " +
         std::to_string(i * i) + ")");
  }
  EXPECT_EQ(Must("SELECT a FROM t WHERE a > 7").rows.size(), 3u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a BETWEEN 3 AND 5").rows.size(), 3u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a IN (1, 5, 11)").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a = 2 OR b = 81").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE NOT a <= 9").rows.size(), 1u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a % 2 = 0 AND b > 10").rows.size(), 4u);
}

TEST_F(EngineTest, UpdateAndDelete) {
  Must("CREATE TABLE t (a INTEGER, b INTEGER)");
  Must("INSERT INTO t(a, b) VALUES (1, 10), (2, 20), (3, 30)");
  ResultSet upd = Must("UPDATE t SET b = b + 5 WHERE a >= 2");
  EXPECT_EQ(upd.affected, 2);
  ResultSet rs = Must("SELECT b FROM t ORDER BY a");
  EXPECT_EQ(rs.rows[0][0].as_int(), 10);
  EXPECT_EQ(rs.rows[1][0].as_int(), 25);
  EXPECT_EQ(rs.rows[2][0].as_int(), 35);
  ResultSet del = Must("DELETE FROM t WHERE b = 25");
  EXPECT_EQ(del.affected, 1);
  EXPECT_EQ(Must("SELECT a FROM t").rows.size(), 2u);
}

TEST_F(EngineTest, Joins) {
  Must("CREATE TABLE a (id INTEGER, x VARCHAR(4))");
  Must("CREATE TABLE b (id INTEGER, y VARCHAR(4))");
  Must("INSERT INTO a(id, x) VALUES (1, 'a1'), (2, 'a2')");
  Must("INSERT INTO b(id, y) VALUES (2, 'b2'), (3, 'b3')");
  ResultSet rs = Must("SELECT a.x, b.y FROM a, b WHERE a.id = b.id");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_string(), "a2");
  EXPECT_EQ(rs.rows[0][1].as_string(), "b2");
  // Cross product without join predicate.
  EXPECT_EQ(Must("SELECT a.x, b.y FROM a, b").rows.size(), 4u);
  // Self-join via aliases.
  ResultSet self = Must("SELECT s.id, t.id FROM a s, a t WHERE s.id < t.id");
  ASSERT_EQ(self.rows.size(), 1u);
}

// Column references are resolved once per statement, before the scan; these
// pin down the name rules that resolution keeps.
TEST_F(EngineTest, JoinResolvesUnqualifiedUniqueColumns) {
  Must("CREATE TABLE a (aid INTEGER, x VARCHAR(4))");
  Must("CREATE TABLE b (bid INTEGER, y VARCHAR(4))");
  Must("INSERT INTO a(aid, x) VALUES (1, 'a1'), (2, 'a2'), (3, 'a3')");
  Must("INSERT INTO b(bid, y) VALUES (3, 'b3'), (2, 'b2'), (4, 'b4')");
  ResultSet rs =
      Must("SELECT x, y FROM a, b WHERE aid = bid AND x <> 'a9' ORDER BY y DESC");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_string(), "a3");
  EXPECT_EQ(rs.rows[0][1].as_string(), "b3");
  EXPECT_EQ(rs.rows[1][0].as_string(), "a2");
  EXPECT_EQ(rs.rows[1][1].as_string(), "b2");
}

TEST_F(EngineTest, JoinRejectsAmbiguousAndUnknownNames) {
  Must("CREATE TABLE a (id INTEGER, x VARCHAR(4))");
  Must("CREATE TABLE b (id INTEGER, y VARCHAR(4))");
  Must("INSERT INTO a(id, x) VALUES (1, 'a1')");
  Must("INSERT INTO b(id, y) VALUES (1, 'b1')");
  for (const char* sql : {"SELECT x FROM a, b WHERE id = 1",
                          "SELECT id FROM a, b",
                          "SELECT x FROM a, b ORDER BY id"}) {
    Status st = Fails(sql);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(st.message().find("ambiguous column id"), std::string::npos)
        << sql << " -> " << st.ToString();
  }
  Status qualifier = Fails("SELECT a.x FROM a, b WHERE c.id = 1");
  EXPECT_EQ(qualifier.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(qualifier.message().find("unknown column c.id"), std::string::npos)
      << qualifier.ToString();
  Status column = Fails("SELECT a.x FROM a, b WHERE a.y = 'b1'");
  EXPECT_EQ(column.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(column.message().find("unknown column a.y"), std::string::npos)
      << column.ToString();
  // Qualifiers and unique names still resolve next to the failures.
  EXPECT_EQ(Must("SELECT x, y FROM a, b WHERE a.id = b.id").rows.size(), 1u);
}

TEST_F(EngineTest, RowIdPseudoColumnInJoinPredicate) {
  Must("CREATE TABLE a (v INTEGER)");
  Must("CREATE TABLE b (w INTEGER)");
  Must("INSERT INTO a(v) VALUES (10), (20), (30)");
  Must("INSERT INTO b(w) VALUES (2), (3)");
  ResultSet rs = Must("SELECT v, w FROM a, b WHERE a.rowid = b.w ORDER BY v");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 20);
  EXPECT_EQ(rs.rows[1][0].as_int(), 30);
  // Both tables carry the pseudo-column, so the bare name is ambiguous.
  EXPECT_NE(Fails("SELECT v FROM a, b WHERE rowid = w").message().find(
                "ambiguous column rowid"),
            std::string::npos);
  Database syb(FlavorTraits::Sybase());
  ASSERT_TRUE(syb.Execute(0, "CREATE TABLE a (v INTEGER)").ok());
  ASSERT_TRUE(syb.Execute(0, "CREATE TABLE b (w INTEGER)").ok());
  EXPECT_EQ(syb.Execute(0, "SELECT v FROM a, b WHERE a.rowid = b.w")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// Stock-Level's shape: an index range scan joined to point probes, with
// COUNT(DISTINCT) over the probed table; plus GROUP BY across the join.
TEST_F(EngineTest, AggregatesOverJoin) {
  Must("CREATE TABLE ol (w INTEGER, o INTEGER, n INTEGER, item INTEGER, "
       "PRIMARY KEY(w, o, n))");
  Must("CREATE TABLE st (w INTEGER, item INTEGER, qty INTEGER, "
       "PRIMARY KEY(w, item))");
  Must("INSERT INTO st(w, item, qty) VALUES (1, 1, 5), (1, 2, 50), "
       "(1, 3, 7), (2, 1, 1)");
  Must("INSERT INTO ol(w, o, n, item) VALUES (1, 10, 1, 1), (1, 10, 2, 2), "
       "(1, 11, 1, 1), (1, 11, 2, 3), (1, 12, 1, 3), (1, 9, 1, 3), "
       "(2, 10, 1, 1)");
  ResultSet stock = Must(
      "SELECT COUNT(DISTINCT st.item) FROM ol, st WHERE ol.w = 1 AND o >= 10 "
      "AND o < 12 AND st.w = ol.w AND st.item = ol.item AND qty < 10");
  ASSERT_EQ(stock.rows.size(), 1u);
  EXPECT_EQ(stock.rows[0][0].as_int(), 2);  // items 1 and 3
  ResultSet grouped = Must(
      "SELECT o, COUNT(*), SUM(qty) FROM ol, st WHERE ol.w = st.w AND "
      "ol.item = st.item GROUP BY o ORDER BY o");
  ASSERT_EQ(grouped.rows.size(), 4u);
  EXPECT_EQ(grouped.rows[0][0].as_int(), 9);
  EXPECT_EQ(grouped.rows[1][0].as_int(), 10);
  EXPECT_EQ(grouped.rows[1][1].as_int(), 3);   // (1,10,*) twice + (2,10,1)
  EXPECT_EQ(grouped.rows[1][2].as_int(), 56);  // 5 + 50 + 1
  EXPECT_EQ(grouped.rows[2][2].as_int(), 12);  // 5 + 7
}

TEST_F(EngineTest, Aggregates) {
  Must("CREATE TABLE t (g INTEGER, v INTEGER, d DOUBLE)");
  Must("INSERT INTO t(g, v, d) VALUES (1, 10, 1.5), (1, 20, 2.5), (2, 30, 3.5)");
  ResultSet total = Must("SELECT SUM(v), COUNT(*), MIN(v), MAX(v), AVG(v) FROM t");
  ASSERT_EQ(total.rows.size(), 1u);
  EXPECT_EQ(total.rows[0][0].as_int(), 60);
  EXPECT_EQ(total.rows[0][1].as_int(), 3);
  EXPECT_EQ(total.rows[0][2].as_int(), 10);
  EXPECT_EQ(total.rows[0][3].as_int(), 30);
  EXPECT_DOUBLE_EQ(total.rows[0][4].as_double(), 20.0);

  ResultSet grouped = Must("SELECT g, SUM(d) FROM t GROUP BY g ORDER BY g");
  ASSERT_EQ(grouped.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(grouped.rows[0][1].as_double(), 4.0);
  EXPECT_DOUBLE_EQ(grouped.rows[1][1].as_double(), 3.5);
}

TEST_F(EngineTest, CountDistinctAndEmptyAggregates) {
  Must("CREATE TABLE t (v INTEGER)");
  Must("INSERT INTO t(v) VALUES (1), (1), (2), (NULL)");
  ResultSet rs = Must("SELECT COUNT(DISTINCT v), COUNT(v), COUNT(*) FROM t");
  EXPECT_EQ(rs.rows[0][0].as_int(), 2);
  EXPECT_EQ(rs.rows[0][1].as_int(), 3);  // NULLs ignored
  EXPECT_EQ(rs.rows[0][2].as_int(), 4);

  Must("DELETE FROM t");
  ResultSet empty = Must("SELECT COUNT(*), SUM(v) FROM t");
  ASSERT_EQ(empty.rows.size(), 1u);
  EXPECT_EQ(empty.rows[0][0].as_int(), 0);
  EXPECT_TRUE(empty.rows[0][1].is_null());

  // GROUP BY over an empty input yields zero groups.
  EXPECT_EQ(Must("SELECT v, COUNT(*) FROM t GROUP BY v").rows.size(), 0u);
}

TEST_F(EngineTest, OrderByDescAndLimit) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t(a) VALUES (3), (1), (4), (1), (5)");
  ResultSet rs = Must("SELECT a FROM t ORDER BY a DESC LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 5);
  EXPECT_EQ(rs.rows[1][0].as_int(), 4);
}

TEST_F(EngineTest, NullSemantics) {
  Must("CREATE TABLE t (a INTEGER, b INTEGER)");
  Must("INSERT INTO t(a, b) VALUES (1, NULL), (2, 5)");
  // NULL never matches comparisons.
  EXPECT_EQ(Must("SELECT a FROM t WHERE b = 5").rows.size(), 1u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE b <> 5").rows.size(), 0u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE b IS NULL").rows.size(), 1u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE b IS NOT NULL").rows.size(), 1u);
  // Missing INSERT columns become NULL.
  Must("INSERT INTO t(a) VALUES (3)");
  EXPECT_EQ(Must("SELECT a FROM t WHERE b IS NULL").rows.size(), 2u);
}

TEST_F(EngineTest, NotNullConstraint) {
  Must("CREATE TABLE t (a INTEGER NOT NULL, b INTEGER)");
  EXPECT_EQ(Fails("INSERT INTO t(b) VALUES (1)").code(), StatusCode::kConstraint);
  EXPECT_EQ(Fails("INSERT INTO t(a, b) VALUES (NULL, 1)").code(),
            StatusCode::kConstraint);
}

TEST_F(EngineTest, StringLengthConstraint) {
  Must("CREATE TABLE t (s VARCHAR(3))");
  Must("INSERT INTO t(s) VALUES ('abc')");
  EXPECT_EQ(Fails("INSERT INTO t(s) VALUES ('abcd')").code(),
            StatusCode::kConstraint);
}

TEST_F(EngineTest, TransactionsCommitAndRollback) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("BEGIN");
  Must("INSERT INTO t(a) VALUES (1)");
  Must("INSERT INTO t(a) VALUES (2)");
  Must("COMMIT");
  EXPECT_EQ(Must("SELECT a FROM t").rows.size(), 2u);

  Must("BEGIN");
  Must("INSERT INTO t(a) VALUES (3)");
  Must("UPDATE t SET a = 99 WHERE a = 1");
  Must("DELETE FROM t WHERE a = 2");
  Must("ROLLBACK");
  ResultSet rs = Must("SELECT a FROM t ORDER BY a");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  EXPECT_EQ(rs.rows[1][0].as_int(), 2);
}

TEST_F(EngineTest, RowIdPseudoColumn) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t(a) VALUES (10), (20)");
  ResultSet rs = Must("SELECT rowid, a FROM t ORDER BY rowid");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  EXPECT_EQ(rs.rows[1][0].as_int(), 2);
  // Addressing a single row by rowid.
  Must("UPDATE t SET a = 99 WHERE rowid = 2");
  ResultSet check = Must("SELECT a FROM t WHERE rowid = 2");
  EXPECT_EQ(check.rows[0][0].as_int(), 99);
  Must("DELETE FROM t WHERE rowid = 1");
  EXPECT_EQ(Must("SELECT a FROM t").rows.size(), 1u);
}

TEST_F(EngineTest, SybaseFlavorHasNoRowId) {
  Database syb(FlavorTraits::Sybase());
  ASSERT_TRUE(syb.Execute(0, "CREATE TABLE t (a INTEGER)").ok());
  ASSERT_TRUE(syb.Execute(0, "INSERT INTO t(a) VALUES (1)").ok());
  EXPECT_FALSE(syb.Execute(0, "SELECT rowid FROM t").ok());
}

TEST_F(EngineTest, IdentityColumn) {
  Database syb(FlavorTraits::Sybase());
  ASSERT_TRUE(
      syb.Execute(0, "CREATE TABLE t (a INTEGER, rid INTEGER IDENTITY)").ok());
  auto r1 = syb.Execute(0, "INSERT INTO t(a) VALUES (5)");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->last_identity, 1);
  auto r2 = syb.Execute(0, "INSERT INTO t(a) VALUES (6)");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->last_identity, 2);
  // Explicit identity value (identity_insert) is honoured.
  ASSERT_TRUE(syb.Execute(0, "INSERT INTO t(a, rid) VALUES (7, 100)").ok());
  auto rs = syb.Execute(0, "SELECT rid FROM t WHERE a = 7");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].as_int(), 100);
}

TEST_F(EngineTest, LikeOperator) {
  Must("CREATE TABLE t (s VARCHAR(20))");
  Must("INSERT INTO t(s) VALUES ('hello'), ('help'), ('world')");
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE 'hel%'").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE '%orl%'").rows.size(), 1u);
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE 'hel_'").rows.size(), 1u);
}

TEST_F(EngineTest, ErrorsAreReported) {
  EXPECT_EQ(Fails("SELECT x FROM missing").code(), StatusCode::kNotFound);
  Must("CREATE TABLE t (a INTEGER)");
  EXPECT_EQ(Fails("SELECT nope FROM t").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Fails("CREATE TABLE t (a INTEGER)").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(Fails("SELECT FROM t").code(), StatusCode::kParseError);
  EXPECT_EQ(Fails("INSERT INTO t(a) VALUES (1, 2)").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, FailedStatementAbortsTransaction) {
  Must("CREATE TABLE t (a INTEGER NOT NULL)");
  Must("BEGIN");
  Must("INSERT INTO t(a) VALUES (1)");
  Fails("INSERT INTO t(a) VALUES (NULL)");  // aborts the whole transaction
  // The transaction is gone; its prior insert was rolled back.
  EXPECT_EQ(Must("SELECT a FROM t").rows.size(), 0u);
}

TEST_F(EngineTest, StateHashDetectsDifferences) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t(a) VALUES (1), (2)");
  uint64_t h1 = db_.StateHash({"t"});
  Must("UPDATE t SET a = 3 WHERE a = 2");
  uint64_t h2 = db_.StateHash({"t"});
  EXPECT_NE(h1, h2);
  Must("UPDATE t SET a = 2 WHERE a = 3");
  EXPECT_EQ(db_.StateHash({"t"}), h1);
}

TEST_F(EngineTest, WalRecordsRowOps) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("BEGIN");
  Must("INSERT INTO t(a) VALUES (1)");
  Must("UPDATE t SET a = 2");
  Must("DELETE FROM t");
  Must("COMMIT");
  int inserts = 0, updates = 0, deletes = 0, commits = 0;
  for (const LogRecord& rec : db_.wal().records()) {
    switch (rec.op) {
      case LogOp::kInsert: ++inserts; break;
      case LogOp::kUpdate: ++updates; break;
      case LogOp::kDelete: ++deletes; break;
      case LogOp::kCommit: ++commits; break;
      default: break;
    }
  }
  EXPECT_EQ(inserts, 1);
  EXPECT_EQ(updates, 1);
  EXPECT_EQ(deletes, 1);
  EXPECT_GE(commits, 1);
}

}  // namespace
}  // namespace irdb
