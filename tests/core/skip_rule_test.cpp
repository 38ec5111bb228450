// The skip rule (DESIGN.md "Execution-model notes"): a Gather with nothing
// addressed to its partition, and — for MIN/MAX CTEs whose own-column
// updates are idempotent on an unchanged delta — a Compute of a partition
// no Gather changed since its last Compute, is not run. Skipping must be
// exact: SingleThread ≡ Sync stays bit for bit, a CTE whose own column
// changes every Compute never skips one, and skipped tasks leave no span
// and count only in skipped_tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/observer.h"
#include "core/workloads.h"
#include "graph/generators.h"
#include "sql/parser.h"
#include "tests/core/core_test_util.h"

namespace sqloop::core {
namespace {

using testing::CoreFixtureBase;

/// Rows rendered to strings and sorted: the canonical form two runs must
/// agree on bit for bit.
std::vector<std::string> Canonical(const dbc::ResultSet& result) {
  std::vector<std::string> rows;
  for (const auto& row : result.rows) {
    std::string flat;
    for (const auto& value : row) flat += value.ToString() + '|';
    rows.push_back(std::move(flat));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Connected components plus a round counter: Steps changes on every
/// Compute, so no Compute may ever be skipped.
std::string StepCountingComponentsQuery(int rounds) {
  return "WITH ITERATIVE cc (Node, Comp, Delta, Steps) AS ("
         " SELECT src, src, src, 0"
         " FROM (SELECT src FROM edges_sym UNION"
         "       SELECT dst FROM edges_sym) AS alln"
         " GROUP BY src"
         " ITERATE"
         " SELECT cc.Node, LEAST(cc.Comp, cc.Delta),"
         "  COALESCE(MIN(LEAST(Neighbor.Comp, Neighbor.Delta)), Infinity),"
         "  cc.Steps + 1"
         " FROM cc"
         " LEFT JOIN edges_sym AS IncomingEdges"
         "   ON cc.Node = IncomingEdges.dst"
         " LEFT JOIN cc AS Neighbor ON Neighbor.Node = IncomingEdges.src"
         " GROUP BY cc.Node"
         " UNTIL " + std::to_string(rounds) + " ITERATIONS"
         ") SELECT Node, LEAST(Comp, Delta), Steps FROM cc";
}

CteAnalysis Analyze(const std::string& query) {
  const auto stmt = sql::ParseStatement(query);
  return AnalyzeIterativeCte(stmt->with);
}

/// Loads `g` as `edges` and its symmetric closure as `edges_sym`.
void LoadGraphs(CoreFixtureBase& fixture, const graph::Graph& g) {
  fixture.LoadGraph(g);
  graph::Graph sym;
  for (const auto& e : g.edges()) {
    sym.AddEdge(e.src, e.dst);
    sym.AddEdge(e.dst, e.src);
  }
  sym.AssignOutDegreeWeights();
  auto conn = dbc::DriverManager::GetConnection(fixture.Url());
  graph::LoadOptions options;
  options.table_name = "edges_sym";
  graph::LoadEdges(*conn, sym, options);
}

struct ModeRun {
  std::vector<std::string> rows;
  RunStats stats;
};

ModeRun RunMode(const graph::Graph& g, const std::string& query,
                ExecutionMode mode, int partitions = 8) {
  CoreFixtureBase fixture("postgres");
  LoadGraphs(fixture, g);
  SqLoop loop(fixture.Url(), fixture.SmallOptions(mode, partitions, 2));
  ModeRun run;
  run.rows = Canonical(loop.Execute(query));
  run.stats = loop.last_run();
  return run;
}

TEST(SkipRule, AnalysisAllowsSkipsOnlyForIdempotentMinMaxUpdates) {
  EXPECT_TRUE(Analyze(workloads::SsspAllQuery(1)).skip_clean_computes);
  EXPECT_TRUE(Analyze(workloads::DescendantQuery(1)).skip_clean_computes);
  EXPECT_TRUE(Analyze(workloads::ConnectedComponentsQuery())
                  .skip_clean_computes);
  // SUM resets its delta every Compute.
  EXPECT_FALSE(Analyze(workloads::PageRankQuery(3)).skip_clean_computes);
  // `Steps + 1` reads its own column: not idempotent.
  const CteAnalysis steps = Analyze(StepCountingComponentsQuery(3));
  ASSERT_TRUE(steps.parallelizable) << steps.reason;
  EXPECT_FALSE(steps.skip_clean_computes);
}

TEST(SkipRule, StepCountingOwnColumnNeverSkipsACompute) {
  const graph::Graph g = graph::MakeEgoNetGraph(4, 10, 0.25, 3);
  const std::string query = StepCountingComponentsQuery(6);
  const ModeRun single = RunMode(g, query, ExecutionMode::kSingleThread);
  const ModeRun sync = RunMode(g, query, ExecutionMode::kSync);
  ASSERT_TRUE(sync.stats.parallelized) << sync.stats.fallback_reason;
  EXPECT_EQ(sync.rows, single.rows);
  EXPECT_EQ(sync.stats.iterations, 6);
  EXPECT_EQ(sync.stats.compute_tasks, 6u * 8u);
  for (const auto& round : sync.stats.per_iteration()) {
    EXPECT_EQ(round.compute_tasks, 8u) << "round " << round.round;
  }
}

TEST(SkipRule, MinWorkloadsSkipCleanComputesAndMatchSingleThread) {
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  const std::vector<std::pair<const char*, std::string>> queries = {
      {"sssp", workloads::SsspAllQuery(1)},
      {"dq", workloads::DescendantQuery(1)},
      {"cc", workloads::ConnectedComponentsQuery()},
  };
  for (const auto& [name, query] : queries) {
    SCOPED_TRACE(name);
    const ModeRun single = RunMode(g, query, ExecutionMode::kSingleThread);
    const ModeRun sync = RunMode(g, query, ExecutionMode::kSync);
    ASSERT_TRUE(sync.stats.parallelized) << sync.stats.fallback_reason;
    EXPECT_EQ(sync.rows, single.rows);
    EXPECT_EQ(sync.stats.iterations, single.stats.iterations);
    // After round 2 at least one partition sat a Compute out.
    uint64_t skipped_computes = 0;
    for (const auto& round : sync.stats.per_iteration()) {
      if (round.round > 2) skipped_computes += 8 - round.compute_tasks;
    }
    EXPECT_GT(skipped_computes, 0u);
  }
}

/// Counts Compute/Gather spans, which only tasks that ran emit.
class SpanCounter : public ExecutionObserver {
 public:
  void OnTaskComplete(const telemetry::TaskSpan& span) override {
    if (span.kind == telemetry::SpanKind::kCompute) ++computes;
    if (span.kind == telemetry::SpanKind::kGather) ++gathers;
  }
  std::atomic<uint64_t> computes{0};
  std::atomic<uint64_t> gathers{0};
};

TEST(SkipRule, SkippedTasksEmitNoSpanAndSumPerRoundInEveryMode) {
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  for (const ExecutionMode mode :
       {ExecutionMode::kSync, ExecutionMode::kAsync,
        ExecutionMode::kAsyncPriority}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqloopOptions options = fixture.SmallOptions(mode, 8, 2);
    if (mode == ExecutionMode::kAsyncPriority) {
      options.priority_query = workloads::SsspPriorityQuery();
    }
    SqLoop loop(fixture.Url(), options);
    SpanCounter spans;
    loop.set_observer(&spans);
    loop.Execute(workloads::SsspAllQuery(1));
    loop.set_observer(nullptr);
    const RunStats& stats = loop.last_run();
    EXPECT_GT(stats.skipped_tasks, 0u);
    uint64_t compute = 0, gather = 0, skipped = 0;
    for (const auto& round : stats.per_iteration()) {
      compute += round.compute_tasks;
      gather += round.gather_tasks;
      skipped += round.skipped_tasks;
    }
    EXPECT_EQ(compute, stats.compute_tasks);
    EXPECT_EQ(gather, stats.gather_tasks);
    EXPECT_EQ(skipped, stats.skipped_tasks);
#if SQLOOP_TELEMETRY_ENABLED
    EXPECT_EQ(spans.computes.load(), stats.compute_tasks);
    EXPECT_EQ(spans.gathers.load(), stats.gather_tasks);
#endif
  }
}

}  // namespace
}  // namespace sqloop::core
