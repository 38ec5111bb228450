#include <gtest/gtest.h>

#include "common/error.h"
#include "tests/minidb/test_util.h"

namespace sqloop::minidb {
namespace {

using testing::DbFixture;

class DmlTest : public DbFixture {
 protected:
  void SetUp() override {
    Run("CREATE TABLE r (id BIGINT PRIMARY KEY, rank DOUBLE, delta DOUBLE)");
    Run("INSERT INTO r VALUES (1, 0.0, 0.15), (2, 0.0, 0.15), (3, 0.0, 0.15)");
  }
};

TEST_F(DmlTest, InsertReportsAffectedRows) {
  const auto result = Run("INSERT INTO r VALUES (4, 1.0, 0.0), (5, 2.0, 0.0)");
  EXPECT_EQ(result.affected_rows, 2u);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM r").as_int(), 5);
}

TEST_F(DmlTest, InsertWithColumnListFillsNulls) {
  Run("INSERT INTO r (id, delta) VALUES (9, 0.5)");
  const auto row = Run("SELECT rank, delta FROM r WHERE id = 9").rows.at(0);
  EXPECT_TRUE(row[0].is_null());
  EXPECT_DOUBLE_EQ(row[1].as_double(), 0.5);
}

TEST_F(DmlTest, InsertSelect) {
  Run("CREATE TABLE copy (id BIGINT PRIMARY KEY, rank DOUBLE, delta DOUBLE)");
  const auto result = Run("INSERT INTO copy SELECT id, rank, delta FROM r");
  EXPECT_EQ(result.affected_rows, 3u);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM copy").as_int(), 3);
}

TEST_F(DmlTest, InsertArityMismatchThrows) {
  EXPECT_THROW(Run("INSERT INTO r VALUES (10, 1.0)"), ExecutionError);
  EXPECT_THROW(Run("INSERT INTO r (id) VALUES (10, 1.0)"), ExecutionError);
  EXPECT_THROW(Run("INSERT INTO r (missing) VALUES (1)"), ExecutionError);
}

TEST_F(DmlTest, SimpleUpdateCountsChangedRowsOnly) {
  // All three rows match the predicate, but row 1 already has rank 5.
  Run("UPDATE r SET rank = 5.0 WHERE id = 1");
  const auto result = Run("UPDATE r SET rank = 5.0");
  EXPECT_EQ(result.affected_rows, 2u);  // row 1 was unchanged
}

TEST_F(DmlTest, UpdateExpressionSeesOldValues) {
  Run("UPDATE r SET rank = rank + delta, delta = 0.0");
  const auto rows = Run("SELECT rank, delta FROM r ORDER BY id").rows;
  for (const auto& row : rows) {
    EXPECT_DOUBLE_EQ(row[0].as_double(), 0.15);
    EXPECT_DOUBLE_EQ(row[1].as_double(), 0.0);
  }
}

TEST_F(DmlTest, UpdateWithFromSubquery) {
  // The SQLoop gather pattern: accumulate message values by id.
  Run("CREATE TABLE msg (id BIGINT, v DOUBLE)");
  Run("INSERT INTO msg VALUES (1, 0.1), (1, 0.2), (3, 1.0)");
  const auto result = Run(
      "UPDATE r SET delta = delta + m.total FROM "
      "(SELECT id AS mid, SUM(v) AS total FROM msg GROUP BY id) AS m "
      "WHERE r.id = m.mid");
  EXPECT_EQ(result.affected_rows, 2u);
  const auto rows = Run("SELECT delta FROM r ORDER BY id").rows;
  EXPECT_NEAR(rows[0][0].as_double(), 0.45, 1e-12);
  EXPECT_NEAR(rows[1][0].as_double(), 0.15, 1e-12);  // untouched
  EXPECT_NEAR(rows[2][0].as_double(), 1.15, 1e-12);
}

TEST_F(DmlTest, UpdateWithFromFirstMatchWins) {
  Run("CREATE TABLE src (id BIGINT, v DOUBLE)");
  Run("INSERT INTO src VALUES (1, 100.0), (1, 200.0)");
  Run("UPDATE r SET rank = s.v FROM src AS s WHERE r.id = s.id");
  const double rank = Run("SELECT rank FROM r WHERE id = 1")
                          .rows.at(0)
                          .at(0)
                          .as_double();
  EXPECT_TRUE(rank == 100.0 || rank == 200.0);
}

// With duplicate source keys the first source row in source order wins,
// whether the predicate is the hash-matched `t.k = s.k` or a shape that
// scans every source row.
TEST_F(DmlTest, UpdateWithFromTakesFirstSourceRowOnEveryPath) {
  Run("CREATE TABLE s (k BIGINT, w BIGINT)");
  Run("INSERT INTO s VALUES (1, 10), (1, 20), (1, 30)");
  for (const char* predicate : {"t.k = s.k", "t.k + 0 = s.k"}) {
    Run("DROP TABLE IF EXISTS t");
    Run("CREATE TABLE t (k BIGINT, v BIGINT)");
    Run("INSERT INTO t VALUES (1, 0)");
    Run(std::string("UPDATE t SET v = s.w FROM s WHERE ") + predicate);
    EXPECT_EQ(Scalar("SELECT v FROM t").as_int(), 10) << predicate;
  }
}

TEST_F(DmlTest, UpdateWithFromNoMatchLeavesRow) {
  Run("CREATE TABLE src (id BIGINT, v DOUBLE)");
  Run("INSERT INTO src VALUES (99, 1.0)");
  const auto result =
      Run("UPDATE r SET rank = s.v FROM src AS s WHERE r.id = s.id");
  EXPECT_EQ(result.affected_rows, 0u);
}

TEST_F(DmlTest, UpdateUnknownColumnThrows) {
  EXPECT_THROW(Run("UPDATE r SET missing = 1"), ExecutionError);
}

TEST_F(DmlTest, DeleteWithPredicate) {
  const auto result = Run("DELETE FROM r WHERE id > 1");
  EXPECT_EQ(result.affected_rows, 2u);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM r").as_int(), 1);
}

TEST_F(DmlTest, DeleteAllThenReinsertSamePk) {
  Run("DELETE FROM r");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM r").as_int(), 0);
  Run("INSERT INTO r VALUES (1, 9.0, 0.0)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM r").as_int(), 1);
}

TEST_F(DmlTest, Truncate) {
  const auto result = Run("TRUNCATE TABLE r");
  EXPECT_EQ(result.affected_rows, 3u);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM r").as_int(), 0);
}

TEST_F(DmlTest, DropAndIfExists) {
  Run("DROP TABLE r");
  EXPECT_THROW(Run("SELECT * FROM r"), ExecutionError);
  EXPECT_THROW(Run("DROP TABLE r"), ExecutionError);
  Run("DROP TABLE IF EXISTS r");  // no throw
  Run("CREATE TABLE IF NOT EXISTS q (a BIGINT)");
  Run("CREATE TABLE IF NOT EXISTS q (a BIGINT)");  // no throw
}

TEST_F(DmlTest, CreateDuplicateTableThrows) {
  EXPECT_THROW(Run("CREATE TABLE r (a BIGINT)"), ExecutionError);
}

// Transactions ---------------------------------------------------------

TEST_F(DmlTest, RollbackRestoresDml) {
  Session session;
  Run("BEGIN", session);
  Run("UPDATE r SET rank = 9.0", session);
  Run("DELETE FROM r WHERE id = 3", session);
  Run("INSERT INTO r VALUES (4, 1.0, 1.0)", session);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM r").as_int(), 3);
  Run("ROLLBACK", session);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM r").as_int(), 3);
  const auto rows = Run("SELECT id, rank FROM r ORDER BY id").rows;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0][1].as_double(), 0.0);
  EXPECT_EQ(rows[2][0].as_int(), 3);
}

TEST_F(DmlTest, CommitKeepsChanges) {
  Session session;
  Run("BEGIN", session);
  Run("UPDATE r SET rank = 9.0 WHERE id = 1", session);
  Run("COMMIT", session);
  Run("ROLLBACK", session);  // no active txn; harmless
  EXPECT_DOUBLE_EQ(
      Run("SELECT rank FROM r WHERE id = 1").rows[0][0].as_double(), 9.0);
}

TEST_F(DmlTest, NestedBeginThrows) {
  Session session;
  Run("BEGIN", session);
  EXPECT_THROW(Run("BEGIN", session), ExecutionError);
}

TEST_F(DmlTest, TransactionRequiresSession) {
  EXPECT_THROW(Run("BEGIN"), UsageError);
}

TEST_F(DmlTest, RollbackOfTruncate) {
  Session session;
  Run("BEGIN", session);
  Run("TRUNCATE TABLE r", session);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM r").as_int(), 0);
  Run("ROLLBACK", session);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM r").as_int(), 3);
}

// Indexes through SQL ----------------------------------------------------

TEST_F(DmlTest, CreateAndDropIndexThroughSql) {
  Run("CREATE INDEX r_delta ON r (delta)");
  const auto table = db_.FindTable("r");
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->HasIndexOn("delta"));
  Run("DROP INDEX r_delta ON r");
  EXPECT_FALSE(table->HasIndexOn("delta"));
  EXPECT_THROW(Run("DROP INDEX r_delta ON r"), ExecutionError);
  Run("DROP INDEX IF EXISTS r_delta ON r");
}

TEST_F(DmlTest, DropIndexWithoutTableSearchesAllTables) {
  Run("CREATE INDEX r_delta ON r (delta)");
  Run("DROP INDEX r_delta");
  EXPECT_FALSE(db_.FindTable("r")->HasIndexOn("delta"));
}

}  // namespace
}  // namespace sqloop::minidb
