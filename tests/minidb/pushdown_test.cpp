// Index-scan pushdown and scan accounting: `WHERE col = literal` on an
// indexed base table must read only the matching rows, and rows_examined
// must reflect the actual scan volume — the dbc layer's server-cost model
// depends on it.
#include <gtest/gtest.h>

#include "tests/minidb/test_util.h"

namespace sqloop::minidb {
namespace {

class PushdownTest : public testing::DbFixture {
 protected:
  static void SeedMsg(Executor& exec) {
    exec.ExecuteSql("CREATE TABLE msg (id BIGINT, val DOUBLE, target BIGINT)");
    for (int i = 0; i < 100; ++i) {
      exec.ExecuteSql("INSERT INTO msg VALUES (" + std::to_string(i) +
                      ", 1.0, " + std::to_string(i % 4) + ")");
    }
  }
  void SetUp() override { SeedMsg(exec_); }
};

TEST_F(PushdownTest, FullScanExaminesAllRows) {
  const auto result = Run("SELECT COUNT(*) FROM msg WHERE target = 2");
  EXPECT_EQ(result.rows[0][0].as_int(), 25);
  EXPECT_EQ(result.rows_examined, 100u);  // no index -> full scan
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.full_scans, 1u);
  EXPECT_EQ(counters.index_scans, 0u);
  EXPECT_EQ(counters.pushed_predicates, 1u);
  EXPECT_EQ(counters.vectorized_cores, 1u);
  // The batched aggregate streams scanned rows straight into the
  // accumulators — nothing is copied or even pinned as a view.
  EXPECT_EQ(counters.rows_materialized, 0u);
  EXPECT_EQ(counters.rows_borrowed, 0u);
}

TEST_F(PushdownTest, IndexScanExaminesOnlyMatches) {
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto result = Run("SELECT COUNT(*) FROM msg WHERE target = 2");
  EXPECT_EQ(result.rows[0][0].as_int(), 25);
  EXPECT_EQ(result.rows_examined, 25u);  // index narrows the scan
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.index_scans, 1u);
  EXPECT_EQ(counters.full_scans, 0u);
  EXPECT_EQ(counters.rows_materialized, 0u);
}

TEST_F(PushdownTest, IndexScanWithExtraConjuncts) {
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto result =
      Run("SELECT id FROM msg WHERE target = 1 AND id > 50");
  EXPECT_EQ(result.rows.size(), 12u);  // 53, 57, ..., 97
  EXPECT_EQ(result.rows_examined, 25u);
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.index_scans, 1u);
  EXPECT_EQ(counters.pushed_predicates, 2u);  // both conjuncts pushed
}

TEST_F(PushdownTest, LiteralOnLeftSideAlsoPushesDown) {
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto result = Run("SELECT COUNT(*) FROM msg WHERE 3 = target");
  EXPECT_EQ(result.rows[0][0].as_int(), 25);
  EXPECT_EQ(result.rows_examined, 25u);
}

TEST_F(PushdownTest, PrimaryKeyLookupPushesDown) {
  Run("CREATE TABLE r (id BIGINT PRIMARY KEY, v DOUBLE)");
  for (int i = 0; i < 50; ++i) {
    Run("INSERT INTO r VALUES (" + std::to_string(i) + ", 0.5)");
  }
  const auto result = Run("SELECT v FROM r WHERE id = 7");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows_examined, 1u);
  EXPECT_EQ(exec_.last_engine_counters().index_scans, 1u);
}

TEST_F(PushdownTest, AliasQualifiedColumnPushesDown) {
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto result =
      Run("SELECT COUNT(*) FROM msg AS m WHERE m.target = 0");
  EXPECT_EQ(result.rows[0][0].as_int(), 25);
  EXPECT_EQ(result.rows_examined, 25u);
}

TEST_F(PushdownTest, UnionArmsPushDownIndependently) {
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto result = Run(
      "SELECT id FROM msg WHERE target = 0 UNION ALL "
      "SELECT id FROM msg WHERE target = 1");
  EXPECT_EQ(result.rows.size(), 50u);
  EXPECT_EQ(result.rows_examined, 50u);
}

TEST_F(PushdownTest, ResultsIdenticalWithAndWithoutIndex) {
  const auto before =
      testing::Sorted(Run("SELECT id FROM msg WHERE target = 2").rows);
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto after =
      testing::Sorted(Run("SELECT id FROM msg WHERE target = 2").rows);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(Value::KeyEquals(before[i][0], after[i][0]));
  }
}

TEST_F(PushdownTest, NullLiteralNeverPushesDown) {
  Run("CREATE INDEX msg_target ON msg (target)");
  // col = NULL matches nothing; must not be turned into an index probe.
  const auto result = Run("SELECT COUNT(*) FROM msg WHERE target = NULL");
  EXPECT_EQ(result.rows[0][0].as_int(), 0);
}

TEST_F(PushdownTest, RowsExaminedCoversJoins) {
  Run("CREATE TABLE a (x BIGINT)");
  Run("CREATE TABLE b (y BIGINT)");
  for (int i = 0; i < 10; ++i) {
    Run("INSERT INTO a VALUES (" + std::to_string(i) + ")");
    Run("INSERT INTO b VALUES (" + std::to_string(i) + ")");
  }
  const auto result =
      Run("SELECT COUNT(*) FROM a JOIN b ON a.x = b.y");
  EXPECT_EQ(result.rows[0][0].as_int(), 10);
  EXPECT_GE(result.rows_examined, 20u);  // both inputs scanned
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.vectorized_cores, 1u);
  // A batched aggregate-over-join borrows its scan inputs and streams the
  // joined rows into the accumulators without an intermediate Relation.
  EXPECT_EQ(counters.rows_borrowed, 20u);
  EXPECT_EQ(counters.rows_materialized, 0u);
}

TEST_F(PushdownTest, ReferencePipelineMaterializesSameAnswer) {
  const auto batched = Run("SELECT COUNT(*) FROM msg WHERE target = 2");
  EXPECT_EQ(exec_.last_engine_counters().rows_materialized, 0u);
  Database ref_db("testdb_ref", EngineProfile::Canonical(), nullptr,
                  SelectEngine::kReference);
  Executor ref_exec(ref_db);
  SeedMsg(ref_exec);
  const auto reference =
      ref_exec.ExecuteSql("SELECT COUNT(*) FROM msg WHERE target = 2");
  const auto& counters = ref_exec.last_engine_counters();
  EXPECT_EQ(counters.vectorized_cores, 0u);
  // The materializing pipeline copies the scanned table into an
  // intermediate Relation before filtering.
  EXPECT_EQ(counters.rows_materialized, 100u);
  EXPECT_EQ(counters.rows_borrowed, 0u);
  EXPECT_EQ(batched.rows[0][0].as_int(), reference.rows[0][0].as_int());
  EXPECT_EQ(batched.rows_examined, reference.rows_examined);
}

}  // namespace
}  // namespace sqloop::minidb
