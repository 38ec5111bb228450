// Direct unit tests of expression evaluation and the aggregate
// accumulators (elsewhere only exercised through full statements).
#include "minidb/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"
#include "sql/parser.h"

namespace sqloop::minidb {
namespace {

/// Evaluates a scalar SQL expression with no input row.
Value Eval(const std::string& expr_sql) {
  const auto holder = sql::ParseSelect("SELECT " + expr_sql);
  EvalContext ctx;
  return Evaluate(*holder->cores[0].items[0].expr, ctx);
}

/// Evaluates against one named row.
Value EvalRow(const std::string& expr_sql,
              const std::vector<ColumnBinding>& columns, const Row& row) {
  const auto holder = sql::ParseSelect("SELECT " + expr_sql);
  EvalContext ctx;
  ctx.columns = &columns;
  ctx.row = &row;
  return Evaluate(*holder->cores[0].items[0].expr, ctx);
}

TEST(Evaluator, ArithmeticTypePromotion) {
  EXPECT_TRUE(Eval("1 + 2").is_int());
  EXPECT_TRUE(Eval("1 + 2.0").is_double());
  EXPECT_DOUBLE_EQ(Eval("3 * 0.5").as_double(), 1.5);
  EXPECT_EQ(Eval("-(4 - 9)").as_int(), 5);
}

TEST(Evaluator, BigintArithmeticWrapsInTwosComplement) {
  EXPECT_EQ(Eval("9223372036854775807 + 1").as_int(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Eval("(0 - 9223372036854775807) - 2").as_int(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Eval("4611686018427387904 * 2").as_int(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Eval("9223372036854775807 * 3").as_int(),
            std::numeric_limits<int64_t>::max() - 2);
  EXPECT_EQ(Eval("(0 - 9223372036854775807 - 1) / -1").as_int(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Eval("(0 - 9223372036854775807 - 1) % -1").as_int(), 0);
  EXPECT_EQ(Eval("7 / -1").as_int(), -7);
  EXPECT_EQ(Eval("7 % -1").as_int(), 0);
  EXPECT_EQ(Eval("-(0 - 9223372036854775807 - 1)").as_int(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Eval("ABS(0 - 9223372036854775807 - 1)").as_int(),
            std::numeric_limits<int64_t>::min());
}

TEST(Evaluator, NullPropagation) {
  EXPECT_TRUE(Eval("1 + NULL").is_null());
  EXPECT_TRUE(Eval("NULL * 2.0").is_null());
  EXPECT_TRUE(Eval("-(NULL)").is_null());
  EXPECT_TRUE(Eval("NULL = NULL").is_null());
  EXPECT_TRUE(Eval("1 < NULL").is_null());
}

TEST(Evaluator, ThreeValuedLogic) {
  // AND: false dominates unknown; OR: true dominates unknown.
  EXPECT_EQ(Eval("(1 = 2) AND (NULL = 1)").as_int(), 0);
  EXPECT_TRUE(Eval("(1 = 1) AND (NULL = 1)").is_null());
  EXPECT_EQ(Eval("(1 = 1) OR (NULL = 1)").as_int(), 1);
  EXPECT_TRUE(Eval("(1 = 2) OR (NULL = 1)").is_null());
  EXPECT_TRUE(Eval("NOT (NULL = 1)").is_null());
}

TEST(Evaluator, TruthinessOfNull) {
  EXPECT_FALSE(Truthy(Value::Null()));
  EXPECT_FALSE(Truthy(Value(int64_t{0})));
  EXPECT_TRUE(Truthy(Value(0.001)));
  EXPECT_THROW(Truthy(Value(std::string("yes"))), ExecutionError);
}

TEST(Evaluator, CaseSimpleAndSearched) {
  EXPECT_EQ(Eval("CASE 2 WHEN 1 THEN 10 WHEN 2 THEN 20 END").as_int(), 20);
  EXPECT_TRUE(Eval("CASE 9 WHEN 1 THEN 10 END").is_null());
  EXPECT_EQ(Eval("CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END").as_text(), "b");
}

TEST(Evaluator, DivisionAndModuloErrors) {
  EXPECT_THROW(Eval("5 / 0"), ExecutionError);
  EXPECT_THROW(Eval("5 % 0"), ExecutionError);
  EXPECT_TRUE(std::isinf(Eval("5.0 / 0.0").as_double()));  // double inf
  EXPECT_THROW(Eval("'a' + 1"), ExecutionError);
  EXPECT_THROW(Eval("1.5 % 2"), ExecutionError);
}

TEST(Evaluator, ScalarFunctions) {
  EXPECT_EQ(Eval("ABS(-3)").as_int(), 3);
  EXPECT_DOUBLE_EQ(Eval("ABS(-2.5)").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Eval("SQRT(9.0)").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("FLOOR(2.7)").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(Eval("CEIL(2.1)").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("ROUND(2.5)").as_double(), 3.0);
  EXPECT_THROW(Eval("NOSUCHFN(1)"), ExecutionError);
  EXPECT_THROW(Eval("ABS(1, 2)"), ExecutionError);
}

TEST(Evaluator, CoalesceLeastGreatest) {
  EXPECT_EQ(Eval("COALESCE(NULL, NULL, 7)").as_int(), 7);
  EXPECT_TRUE(Eval("COALESCE(NULL, NULL)").is_null());
  EXPECT_EQ(Eval("LEAST(3, 1, 2)").as_int(), 1);
  EXPECT_EQ(Eval("GREATEST(3, NULL, 5)").as_int(), 5);  // NULLs ignored
  EXPECT_TRUE(Eval("LEAST(NULL, NULL)").is_null());
}

TEST(Evaluator, ColumnResolutionAndAmbiguity) {
  const std::vector<ColumnBinding> columns = {
      {"a", "x"}, {"b", "x"}, {"a", "y"}};
  const Row row = {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})};
  EXPECT_EQ(EvalRow("a.x", columns, row).as_int(), 1);
  EXPECT_EQ(EvalRow("b.x", columns, row).as_int(), 2);
  EXPECT_EQ(EvalRow("y", columns, row).as_int(), 3);  // unique unqualified
  EXPECT_THROW(EvalRow("x", columns, row), AnalysisError);  // ambiguous
  EXPECT_THROW(EvalRow("a.z", columns, row), AnalysisError);  // unknown
}

TEST(Evaluator, AggregateOutsideGroupingThrows) {
  EXPECT_THROW(Eval("SUM(1)"), AnalysisError);
}

// --- Accumulators ---------------------------------------------------------

TEST(Accumulator, SumStaysIntegerUntilDoubleArrives) {
  Accumulator acc(sql::AggFunc::kSum, false);
  acc.Add(Value(int64_t{2}));
  acc.Add(Value(int64_t{3}));
  EXPECT_TRUE(acc.Result().is_int());
  EXPECT_EQ(acc.Result().as_int(), 5);
  acc.Add(Value(0.5));
  EXPECT_TRUE(acc.Result().is_double());
  EXPECT_DOUBLE_EQ(acc.Result().as_double(), 5.5);
}

TEST(Accumulator, IntegerSumWrapsInTwosComplement) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Accumulator acc(sql::AggFunc::kSum, false);
  acc.Add(Value(kMax));
  acc.Add(Value(int64_t{1}));
  EXPECT_EQ(acc.Result().as_int(), std::numeric_limits<int64_t>::min());
  const int64_t span[] = {kMax, 1, kMax};
  Accumulator batched(sql::AggFunc::kSum, false);
  batched.AddInt64Span(span, 3);
  EXPECT_EQ(batched.Result().as_int(), -1);
}

TEST(Accumulator, SumOfNothingIsNull) {
  Accumulator acc(sql::AggFunc::kSum, false);
  acc.Add(Value::Null());
  EXPECT_TRUE(acc.Result().is_null());
}

TEST(Accumulator, CountSkipsNulls) {
  Accumulator acc(sql::AggFunc::kCount, false);
  acc.Add(Value(int64_t{1}));
  acc.Add(Value::Null());
  acc.Add(Value(int64_t{1}));
  EXPECT_EQ(acc.Result().as_int(), 2);
}

TEST(Accumulator, CountDistinct) {
  Accumulator acc(sql::AggFunc::kCount, true);
  acc.Add(Value(int64_t{1}));
  acc.Add(Value(int64_t{1}));
  acc.Add(Value(int64_t{2}));
  acc.Add(Value(2.0));  // equals int 2 under key equality
  EXPECT_EQ(acc.Result().as_int(), 2);
}

TEST(Accumulator, MinMaxWithInfinity) {
  const double inf = std::numeric_limits<double>::infinity();
  Accumulator mn(sql::AggFunc::kMin, false);
  mn.Add(Value(inf));
  mn.Add(Value(3.0));
  EXPECT_DOUBLE_EQ(mn.Result().as_double(), 3.0);
  Accumulator mx(sql::AggFunc::kMax, false);
  mx.Add(Value(-inf));
  EXPECT_DOUBLE_EQ(mx.Result().as_double(), -inf);
}

TEST(Accumulator, AvgIsAlwaysDouble) {
  Accumulator acc(sql::AggFunc::kAvg, false);
  acc.Add(Value(int64_t{1}));
  acc.Add(Value(int64_t{2}));
  EXPECT_TRUE(acc.Result().is_double());
  EXPECT_DOUBLE_EQ(acc.Result().as_double(), 1.5);
}

TEST(Accumulator, SumDistinct) {
  Accumulator acc(sql::AggFunc::kSum, true);
  acc.Add(Value(int64_t{5}));
  acc.Add(Value(int64_t{5}));
  acc.Add(Value(int64_t{7}));
  EXPECT_EQ(acc.Result().as_int(), 12);
}

TEST(Helpers, CollectAggregatesDeduplicates) {
  const auto holder = sql::ParseSelect(
      "SELECT SUM(a) + SUM(a) + MIN(b) FROM t GROUP BY c");
  std::vector<const sql::Expr*> aggs;
  CollectAggregates(*holder->cores[0].items[0].expr, aggs);
  EXPECT_EQ(aggs.size(), 2u);  // SUM(a) once, MIN(b) once
}

TEST(Helpers, ContainsAggregate) {
  const auto with_agg = sql::ParseSelect("SELECT 1 + SUM(x) FROM t");
  EXPECT_TRUE(ContainsAggregate(*with_agg->cores[0].items[0].expr));
  const auto without = sql::ParseSelect("SELECT 1 + x FROM t");
  EXPECT_FALSE(ContainsAggregate(*without->cores[0].items[0].expr));
}

}  // namespace
}  // namespace sqloop::minidb
