// Prepared index probes: a prepared statement's `?` slots are bound
// literals by the time it executes, so the scan set-up chooses the index
// probe per execution, like it does for literal text. Index DDL after the
// Prepare switches the same handle between probe and full scan, with the
// same answer either way.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tests/minidb/test_util.h"

namespace sqloop::minidb {
namespace {

constexpr const char* kProbeSql = "SELECT v FROM t WHERE k = ?";

class PreparedProbeTest : public testing::DbFixture {
 protected:
  void SetUp() override {
    // 100 rows, k = i % 10: every key 0-9 matches 10 rows.
    Run("CREATE TABLE t (k BIGINT, v BIGINT)");
    for (int i = 0; i < 100; ++i) {
      Run("INSERT INTO t VALUES (" + std::to_string(i % 10) + ", " +
          std::to_string(i) + ")");
    }
  }

  /// Prepares kProbeSql and keeps a private clone of its AST whose `?`
  /// slot Execute rewrites, the way a dbc PreparedStatement binds.
  void PrepareHandle() {
    plan_ = exec_.Prepare(kProbeSql, /*pin=*/true);
    bound_ = plan_->ast->Clone();
    sql::VisitStatementExprsMutable(*bound_, [this](sql::Expr& expr) {
      if (expr.param_index == 0) slot_ = &expr;
    });
    ASSERT_NE(slot_, nullptr);
  }

  /// Executes the handle with `key` bound. DDL since the last execution
  /// re-prepares first, which rebinds the lock plan without a parse.
  ResultSet Execute(const Value& key) {
    if (plan_->bound_version != db_.catalog_version()) {
      plan_ = exec_.Prepare(kProbeSql, /*pin=*/true);
    }
    slot_->kind = sql::ExprKind::kLiteral;
    slot_->literal = key;
    return exec_.ExecuteWithPlan(*bound_, *plan_->locks);
  }

  /// The v values of the rows with k = key, in scan (insertion) order.
  static std::vector<int64_t> Expected(int64_t key) {
    std::vector<int64_t> out;
    for (int64_t v = key; v < 100; v += 10) out.push_back(v);
    return out;
  }

  static std::vector<int64_t> Column(const ResultSet& result) {
    std::vector<int64_t> out;
    for (const Row& row : result.rows) out.push_back(row.at(0).as_int());
    return out;
  }

  std::shared_ptr<const CachedPlan> plan_;
  sql::StatementPtr bound_;
  sql::Expr* slot_ = nullptr;
};

TEST_F(PreparedProbeTest, EveryBindIsAnIndexProbe) {
  Run("CREATE INDEX t_k ON t (k)");
  PrepareHandle();
  for (const int64_t key : {3, 0, 9, 3}) {
    const ResultSet result = Execute(Value(key));
    EXPECT_EQ(Column(result), Expected(key)) << "k = " << key;
    const auto& counters = exec_.last_engine_counters();
    EXPECT_EQ(counters.index_scans, 1u) << "k = " << key;
    EXPECT_EQ(counters.full_scans, 0u) << "k = " << key;
    EXPECT_EQ(result.rows_examined, 10u) << "k = " << key;
  }
  // A key no row holds still probes, and examines nothing.
  const ResultSet none = Execute(Value(int64_t{42}));
  EXPECT_TRUE(none.rows.empty());
  EXPECT_EQ(exec_.last_engine_counters().index_scans, 1u);
  EXPECT_EQ(none.rows_examined, 0u);
}

TEST_F(PreparedProbeTest, NullBindReturnsNoRowsWithoutAProbe) {
  Run("CREATE INDEX t_k ON t (k)");
  PrepareHandle();
  // NULL never matches under SQL `=`, so a NULL key is no probe key.
  const ResultSet result = Execute(Value::Null());
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(exec_.last_engine_counters().index_scans, 0u);
  EXPECT_EQ(exec_.last_engine_counters().full_scans, 1u);
  // The same handle probes again once the bind is a key.
  EXPECT_EQ(Column(Execute(Value(int64_t{5}))), Expected(5));
  EXPECT_EQ(exec_.last_engine_counters().index_scans, 1u);
}

TEST_F(PreparedProbeTest, IndexDdlAfterPrepareSwitchesTheSameHandle) {
  PrepareHandle();
  const std::shared_ptr<const sql::Statement> parse = plan_->ast;
  const uint64_t rebinds0 = db_.plan_cache().rebinds();

  const ResultSet scanned = Execute(Value(int64_t{7}));
  EXPECT_EQ(Column(scanned), Expected(7));
  EXPECT_EQ(exec_.last_engine_counters().index_scans, 0u);
  EXPECT_EQ(exec_.last_engine_counters().full_scans, 1u);
  EXPECT_EQ(scanned.rows_examined, 100u);

  Run("CREATE INDEX t_k ON t (k)");
  const ResultSet probed = Execute(Value(int64_t{7}));
  EXPECT_EQ(probed.rows, scanned.rows);
  EXPECT_EQ(exec_.last_engine_counters().index_scans, 1u);
  EXPECT_EQ(exec_.last_engine_counters().full_scans, 0u);
  EXPECT_EQ(probed.rows_examined, 10u);

  Run("DROP INDEX t_k");
  const ResultSet rescanned = Execute(Value(int64_t{7}));
  EXPECT_EQ(rescanned.rows, scanned.rows);
  EXPECT_EQ(exec_.last_engine_counters().index_scans, 0u);
  EXPECT_EQ(exec_.last_engine_counters().full_scans, 1u);
  EXPECT_EQ(rescanned.rows_examined, 100u);

  // Both DDL statements rebound the handle; neither re-parsed it.
  EXPECT_EQ(plan_->ast, parse);
  EXPECT_EQ(db_.plan_cache().rebinds(), rebinds0 + 2);
}

}  // namespace
}  // namespace sqloop::minidb
