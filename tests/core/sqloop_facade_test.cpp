#include "core/sqloop.h"

#include <gtest/gtest.h>

#include <atomic>

#include "common/error.h"
#include "core/workloads.h"
#include "graph/generators.h"
#include "telemetry/recorder.h"
#include "tests/core/core_test_util.h"

namespace sqloop::core {
namespace {

using testing::CoreFixtureBase;

TEST(Facade, RegularSqlPassesThrough) {
  CoreFixtureBase fixture("postgres");
  SqLoop loop(fixture.Url());
  loop.Execute("CREATE UNLOGGED TABLE t (a BIGINT PRIMARY KEY, "
               "b DOUBLE PRECISION)");
  loop.Execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)");
  const auto result = loop.Execute("SELECT SUM(b) FROM t");
  EXPECT_DOUBLE_EQ(result.rows.at(0).at(0).as_double(), 2.0);
}

TEST(Facade, TranslatesCanonicalDdlForEachEngine) {
  // The same canonical statement must work against every engine — the
  // paper's "uniform SQL expression" claim. Note `DOUBLE` would be
  // rejected raw by the postgres profile; the translator fixes it up.
  for (const char* engine : {"postgres", "mysql", "mariadb"}) {
    CoreFixtureBase fixture(engine);
    SqLoop loop(fixture.Url());
    loop.Execute("CREATE UNLOGGED TABLE t (a BIGINT PRIMARY KEY, b DOUBLE)");
    loop.Execute("INSERT INTO t VALUES (1, 2.5)");
    EXPECT_EQ(loop.Execute("SELECT COUNT(*) FROM t").rows[0][0].as_int(), 1)
        << engine;
  }
}

TEST(Facade, RecursiveCteNativeOnPostgres) {
  CoreFixtureBase fixture("postgres");
  SqLoop loop(fixture.Url());
  const auto result = loop.Execute(
      "WITH RECURSIVE Fibonacci (n, pn) AS (VALUES (0, 1) UNION ALL "
      "SELECT n + pn, n FROM Fibonacci WHERE n < 1000) "
      "SELECT SUM(n) FROM Fibonacci");
  EXPECT_EQ(result.rows.at(0).at(0).as_int(), 4180);
}

TEST(Facade, RecursiveCteEmulatedOnMySql) {
  // MySQL 5.7 cannot evaluate WITH RECURSIVE; SQLoop must still return the
  // same answer by emulating semi-naive evaluation client-side.
  CoreFixtureBase fixture("mysql");
  SqLoop loop(fixture.Url());
  const auto result = loop.Execute(
      "WITH RECURSIVE Fibonacci (n, pn) AS (VALUES (0, 1) UNION ALL "
      "SELECT n + pn, n FROM Fibonacci WHERE n < 1000) "
      "SELECT SUM(n) FROM Fibonacci");
  EXPECT_EQ(result.rows.at(0).at(0).as_int(), 4180);
  EXPECT_GT(loop.last_run().iterations, 10);
}

TEST(Facade, RecursiveEmulationHandlesGraphReachability) {
  CoreFixtureBase fixture("mysql");
  fixture.LoadGraph([] {
    graph::Graph g;
    g.AddEdge(1, 2);
    g.AddEdge(2, 3);
    g.AddEdge(3, 4);
    g.AssignOutDegreeWeights();
    return g;
  }());
  SqLoop loop(fixture.Url());
  const auto result = loop.Execute(
      "WITH RECURSIVE reach (node) AS (SELECT 1 UNION ALL "
      "SELECT edges.dst FROM reach JOIN edges ON reach.node = edges.src) "
      "SELECT COUNT(*) FROM reach");
  EXPECT_EQ(result.rows.at(0).at(0).as_int(), 4);
}

TEST(Facade, IterativeFallbackReasonIsReported) {
  CoreFixtureBase fixture("postgres");
  SqLoop loop(fixture.Url(), [] {
    SqloopOptions o;
    o.mode = ExecutionMode::kSync;
    return o;
  }());
  // No aggregate -> must fall back and say why.
  loop.Execute(
      "WITH ITERATIVE r (k, v) AS (SELECT 1, 2.0 ITERATE "
      "SELECT k, v + 1 FROM r UNTIL 3 ITERATIONS) SELECT v FROM r");
  EXPECT_FALSE(loop.last_run().parallelized);
  EXPECT_NE(loop.last_run().fallback_reason.find("aggregate"),
            std::string::npos);
  EXPECT_EQ(loop.last_run().iterations, 3);
}

TEST(Facade, NonIntegerKeyFallsBackToSingleThread) {
  CoreFixtureBase fixture("postgres");
  SqLoop loop(fixture.Url());
  auto conn = dbc::DriverManager::GetConnection(fixture.Url());
  conn->Execute("CREATE UNLOGGED TABLE e (src TEXT, dst TEXT, "
                "w DOUBLE PRECISION)");
  conn->Execute("INSERT INTO e VALUES ('a', 'b', 1.0), ('b', 'a', 1.0)");
  loop.Execute(
      "WITH ITERATIVE r (k, d) AS ("
      " SELECT src, 1.0 FROM e GROUP BY src"
      " ITERATE"
      " SELECT r.k, COALESCE(SUM(s.d * m.w), 0.0) FROM r"
      "  LEFT JOIN e AS m ON r.k = m.dst"
      "  LEFT JOIN r AS s ON s.k = m.src"
      " GROUP BY r.k UNTIL 2 ITERATIONS) SELECT k, d FROM r");
  EXPECT_FALSE(loop.last_run().parallelized);
  EXPECT_NE(loop.last_run().fallback_reason.find("integer"),
            std::string::npos);
}

TEST(Facade, ExecuteScriptRunsAllStatements) {
  CoreFixtureBase fixture("mariadb");
  SqLoop loop(fixture.Url());
  const auto result = loop.ExecuteScript(
      "CREATE TABLE t (a BIGINT PRIMARY KEY);"
      "INSERT INTO t VALUES (1), (2), (3);"
      "SELECT COUNT(*) FROM t;");
  EXPECT_EQ(result.rows.at(0).at(0).as_int(), 3);
}

TEST(Facade, KeepResultTablesLeavesViewReadable) {
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(graph::MakeWebGraph(50, 3, 4));
  auto options = fixture.SmallOptions(ExecutionMode::kSync, 4, 2);
  options.keep_result_tables = true;
  SqLoop loop(fixture.Url(), options);
  loop.Execute(workloads::PageRankQuery(2));
  // The union view survives for post-run sampling.
  const auto sum = loop.connection().ExecuteQuery(
      "SELECT SUM(Rank) FROM PageRank");
  EXPECT_GT(sum.rows.at(0).at(0).as_double(), 0.0);
}

TEST(Facade, PerCallOptionsOverrideInstanceDefaults) {
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(graph::MakeWebGraph(60, 3, 5));
  // Instance default: single-thread. The per-call options ask for Sync.
  SqLoop loop(fixture.Url(), [] {
    SqloopOptions o;
    o.mode = ExecutionMode::kSingleThread;
    return o;
  }());

  auto per_call = loop.options();
  per_call.mode = ExecutionMode::kSync;
  per_call.partitions = 4;
  per_call.threads = 2;
  loop.Execute(workloads::PageRankQuery(2), per_call);
  EXPECT_TRUE(loop.last_run().parallelized);
  EXPECT_EQ(loop.last_run().mode_used, ExecutionMode::kSync);

  // The instance defaults were not mutated: a plain Execute still runs
  // single-threaded.
  EXPECT_EQ(loop.options().mode, ExecutionMode::kSingleThread);
  loop.Execute(workloads::PageRankQuery(2));
  EXPECT_FALSE(loop.last_run().parallelized);
  EXPECT_EQ(loop.last_run().mode_used, ExecutionMode::kSingleThread);
}

TEST(Facade, SingleThreadRunsExposePerIterationStats) {
  CoreFixtureBase fixture("postgres");
  SqLoop loop(fixture.Url());
  loop.Execute(
      "WITH ITERATIVE r (k, v) AS (SELECT 1, 2.0 ITERATE "
      "SELECT k, v + 1 FROM r UNTIL 3 ITERATIONS) SELECT v FROM r");
  const auto rounds = loop.last_run().per_iteration();
  ASSERT_EQ(rounds.size(), 3u);
  uint64_t updates = 0;
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, static_cast<int64_t>(i + 1));
    EXPECT_EQ(rounds[i].compute_tasks, 1u);
    EXPECT_GT(rounds[i].seconds, 0.0);
    updates += rounds[i].updates;
  }
  EXPECT_EQ(updates, loop.last_run().total_updates);
}

namespace {
/// Counts callbacks and remembers what the rounds reported.
class CountingObserver : public ExecutionObserver {
 public:
  void OnRoundStart(int64_t) override { ++starts; }
  void OnRoundEnd(const telemetry::IterationStats& round) override {
    ++ends;
    updates += round.updates;
  }
  void OnTaskComplete(const telemetry::TaskSpan&) override { ++tasks; }
  void OnFallback(const std::string& reason) override { fallback = reason; }

  int starts = 0;
  int ends = 0;
  std::atomic<int> tasks{0};  // worker threads call OnTaskComplete
  uint64_t updates = 0;
  std::string fallback;
};
}  // namespace

TEST(Facade, ObserverSeesEveryRoundBoundary) {
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(graph::MakeWebGraph(80, 3, 7));
  CountingObserver observer;
  SqLoop loop(fixture.Url());
  loop.set_observer(&observer);
  EXPECT_EQ(loop.observer(), &observer);
  loop.Execute(workloads::PageRankQuery(3),
               fixture.SmallOptions(ExecutionMode::kSync, 4, 2));
  EXPECT_EQ(observer.starts, loop.last_run().iterations);
  EXPECT_EQ(observer.ends, loop.last_run().iterations);
  EXPECT_EQ(observer.updates, loop.last_run().total_updates);
  // Every Compute/Gather task plus the setup/final master spans.
  EXPECT_GE(static_cast<uint64_t>(observer.tasks.load()),
            loop.last_run().compute_tasks + loop.last_run().gather_tasks);
  loop.set_observer(nullptr);
}

TEST(Facade, ObserverHearsAboutFallbacks) {
  CoreFixtureBase fixture("postgres");
  CountingObserver observer;
  SqLoop loop(fixture.Url(), [] {
    SqloopOptions o;
    o.mode = ExecutionMode::kSync;
    return o;
  }());
  loop.set_observer(&observer);
  loop.Execute(
      "WITH ITERATIVE r (k, v) AS (SELECT 1, 2.0 ITERATE "
      "SELECT k, v + 1 FROM r UNTIL 3 ITERATIONS) SELECT v FROM r");
  EXPECT_EQ(observer.fallback, loop.last_run().fallback_reason);
  EXPECT_FALSE(observer.fallback.empty());
  EXPECT_EQ(observer.ends, 3);
}

TEST(Facade, ResolveThreadsClampsToPartitionCount) {
  SqloopOptions options;
  options.threads = 8;
  options.partitions = 3;
  // More workers than partitions could never be scheduled concurrently.
  EXPECT_EQ(options.ResolveThreads(), 3);

  options.partitions = 16;
  EXPECT_EQ(options.ResolveThreads(), 8);

  options.threads = 0;  // auto: half the CPUs, still clamped
  options.partitions = 1;
  EXPECT_EQ(options.ResolveThreads(), 1);

  options.threads = 4;
  options.partitions = 0;  // degenerate partition count clamps to 1
  EXPECT_EQ(options.ResolveThreads(), 1);
}

TEST(Facade, BadUrlThrows) {
  EXPECT_THROW(SqLoop("minidb://nowhere/db"), ConnectionError);
}

TEST(Facade, IterationGuardThrows) {
  CoreFixtureBase fixture("postgres");
  SqLoop loop(fixture.Url(), [] {
    SqloopOptions o;
    o.mode = ExecutionMode::kSingleThread;
    o.max_iterations_guard = 5;
    return o;
  }());
  // The probe can never be satisfied: v is always 1 row, never > 10 rows.
  EXPECT_THROW(
      loop.Execute("WITH ITERATIVE r (k, v) AS (SELECT 1, 2.0 ITERATE "
                   "SELECT k, v + 1 FROM r UNTIL (SELECT k FROM r "
                   "WHERE v < 0)) SELECT v FROM r"),
      ExecutionError);
}

}  // namespace
}  // namespace sqloop::core
