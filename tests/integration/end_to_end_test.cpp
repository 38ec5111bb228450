// Cross-module integration tests: the full stack (graph -> loader -> dbc
// -> minidb -> SQLoop) under realistic conditions — connection latency and
// modeled server cost enabled, concurrent middleware instances, the OLAP
// assumption of §IV-C, and the connected-components workload.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "core/sqloop.h"
#include "core/workloads.h"
#include "dbc/driver.h"
#include "graph/generators.h"
#include "graph/loader.h"
#include "graph/reference.h"
#include "minidb/server.h"
#include "telemetry/exporters.h"
#include "telemetry/hooks.h"

namespace sqloop {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    host_ = "e2e_" + std::to_string(counter.fetch_add(1));
    dbc::DriverManager::RegisterHost(host_, &server_);
    server_.CreateDatabase("db", minidb::EngineProfile::Postgres());
  }
  void TearDown() override { dbc::DriverManager::RegisterHost(host_, nullptr); }

  std::string Url(const std::string& params = "?latency_us=0") {
    return "minidb://" + host_ + "/db" + params;
  }

  minidb::Server server_;
  std::string host_;
};

TEST_F(EndToEndTest, PageRankWithLatencyAndServerCostModel) {
  const graph::Graph g = graph::MakeWebGraph(300, 3, 11);
  {
    auto conn = dbc::DriverManager::GetConnection(Url());
    graph::LoadEdges(*conn, g);
  }
  // Realistic connection: 50us round trips + 1us/row server work.
  core::SqloopOptions options;
  options.mode = core::ExecutionMode::kAsync;
  options.partitions = 8;
  options.threads = 4;
  core::SqLoop loop(Url("?latency_us=50&row_cost_ns=1000"), options);
  const auto result = loop.Execute(core::workloads::PageRankQuery(6));
  EXPECT_EQ(result.rows.size(), g.NodeCount());
  EXPECT_GT(loop.last_run().seconds, 0.0);
}

TEST_F(EndToEndTest, ConnectedComponentsMatchesReference) {
  // Two separate clusters plus an isolated pair.
  graph::Graph g;
  for (const auto& [a, b] : {std::pair<int64_t, int64_t>{1, 2},
                            {2, 3},
                            {3, 4},
                            {10, 11},
                            {11, 12},
                            {20, 21}}) {
    g.AddEdge(a, b);
  }
  g.AssignOutDegreeWeights();

  // Symmetrize: labels must travel against edge direction too.
  graph::Graph sym;
  for (const auto& e : g.edges()) {
    sym.AddEdge(e.src, e.dst);
    sym.AddEdge(e.dst, e.src);
  }
  sym.AssignOutDegreeWeights();
  {
    auto conn = dbc::DriverManager::GetConnection(Url());
    graph::LoadOptions lo;
    lo.table_name = "edges_sym";
    graph::LoadEdges(*conn, sym, lo);
  }

  const auto reference = graph::ConnectedComponents(g);
  for (const auto mode :
       {core::ExecutionMode::kSingleThread, core::ExecutionMode::kSync,
        core::ExecutionMode::kAsync}) {
    core::SqloopOptions options;
    options.mode = mode;
    options.partitions = 4;
    options.threads = 2;
    core::SqLoop loop(Url(), options);
    const auto result =
        loop.Execute(core::workloads::ConnectedComponentsQuery());
    ASSERT_EQ(result.rows.size(), reference.size());
    for (const auto& row : result.rows) {
      const int64_t node = row[0].as_int();
      const auto label =
          static_cast<int64_t>(std::llround(row[1].NumericAsDouble()));
      EXPECT_EQ(label, reference.at(node))
          << "node " << node << " mode " << core::ExecutionModeName(mode);
    }
  }
}

TEST_F(EndToEndTest, TwoMiddlewareInstancesRunConcurrently) {
  // Two SQLoop instances drive different iterative CTEs against the same
  // database at the same time (distinct CTE names -> distinct scratch
  // tables; the engine's table locks arbitrate).
  const graph::Graph g = graph::MakeWebGraph(200, 3, 8);
  {
    auto conn = dbc::DriverManager::GetConnection(Url());
    graph::LoadEdges(*conn, g);
  }
  const auto reference = graph::PageRankReference(g, 5);

  std::atomic<bool> ok{true};
  std::jthread other([&] {
    try {
      core::SqloopOptions options;
      options.mode = core::ExecutionMode::kSync;
      options.partitions = 4;
      options.threads = 2;
      core::SqLoop loop(Url(), options);
      for (int i = 0; i < 3; ++i) {
        const auto hops =
            loop.Execute(core::workloads::DescendantQueryBounded(1, 3));
        if (hops.rows.empty()) ok.store(false);
      }
    } catch (const Error&) {
      ok.store(false);
    }
  });

  core::SqloopOptions options;
  options.mode = core::ExecutionMode::kAsync;
  options.partitions = 4;
  options.threads = 2;
  core::SqLoop loop(Url(), options);
  const auto result = loop.Execute(core::workloads::PageRankQuery(5));
  other.join();
  EXPECT_TRUE(ok.load());
  ASSERT_EQ(result.rows.size(), reference.rank.size());
  for (const auto& row : result.rows) {
    EXPECT_GE(row[1].as_double(), reference.rank.at(row[0].as_int()) - 1e-9);
  }
}

TEST_F(EndToEndTest, OlapAssumptionOtherTablesStayTransactional) {
  // §IV-C: while an iterative query runs, unrelated tables keep serving
  // transactional work (including rollback).
  const graph::Graph g = graph::MakeWebGraph(200, 3, 13);
  {
    auto conn = dbc::DriverManager::GetConnection(Url());
    graph::LoadEdges(*conn, g);
    conn->Execute("CREATE UNLOGGED TABLE orders (id BIGINT PRIMARY KEY, "
                  "total DOUBLE PRECISION)");
  }

  std::atomic<bool> oltp_ok{true};
  std::atomic<bool> stop{false};
  std::jthread oltp([&] {
    try {
      auto conn = dbc::DriverManager::GetConnection(Url());
      int64_t next = 0;
      while (!stop.load()) {
        conn->SetAutoCommit(false);
        conn->Execute("INSERT INTO orders VALUES (" +
                      std::to_string(next) + ", 9.99)");
        if (next % 2 == 0) {
          conn->Commit();
        } else {
          conn->Rollback();
        }
        conn->SetAutoCommit(true);
        ++next;
      }
    } catch (const Error&) {
      oltp_ok.store(false);
    }
  });

  core::SqloopOptions options;
  options.mode = core::ExecutionMode::kSync;
  options.partitions = 8;
  options.threads = 3;
  core::SqLoop loop(Url(), options);
  loop.Execute(core::workloads::PageRankQuery(4));
  stop.store(true);
  oltp.join();
  EXPECT_TRUE(oltp_ok.load());

  auto conn = dbc::DriverManager::GetConnection(Url());
  const auto orders = conn->ExecuteQuery("SELECT COUNT(*) FROM orders");
  EXPECT_GT(orders.rows[0][0].as_int(), 0);  // committed half survived
}

TEST_F(EndToEndTest, PerIterationStatsSumToRunTotals) {
  const graph::Graph g = graph::MakeWebGraph(250, 3, 17);
  {
    auto conn = dbc::DriverManager::GetConnection(Url());
    graph::LoadEdges(*conn, g);
  }
  core::SqLoop loop(Url());
  for (const auto mode :
       {core::ExecutionMode::kSync, core::ExecutionMode::kAsync,
        core::ExecutionMode::kAsyncPriority}) {
    core::SqloopOptions options;
    options.mode = mode;
    options.partitions = 6;
    options.threads = 3;
    if (mode == core::ExecutionMode::kAsyncPriority) {
      options.priority_query = core::workloads::PageRankPriorityQuery();
    }
    loop.Execute(core::workloads::PageRankQuery(5), options);

    const core::RunStats& stats = loop.last_run();
    SCOPED_TRACE(core::ExecutionModeName(mode));
    EXPECT_TRUE(stats.parallelized);
    const auto rounds = stats.per_iteration();
    ASSERT_EQ(rounds.size(), static_cast<size_t>(stats.iterations));

    uint64_t updates = 0, compute = 0, gather = 0, produced = 0, skipped = 0;
    double compute_s = 0, gather_s = 0;
    for (size_t i = 0; i < rounds.size(); ++i) {
      EXPECT_EQ(rounds[i].round, static_cast<int64_t>(i + 1));
      EXPECT_GT(rounds[i].seconds, 0.0);
      updates += rounds[i].updates;
      compute += rounds[i].compute_tasks;
      gather += rounds[i].gather_tasks;
      produced += rounds[i].messages_produced;
      skipped += rounds[i].skipped_tasks;
      compute_s += rounds[i].compute_seconds;
      gather_s += rounds[i].gather_seconds;
    }
    // Per-round deltas sum back to the flat totals.
    EXPECT_EQ(updates, stats.total_updates);
    EXPECT_EQ(compute, stats.compute_tasks);
    EXPECT_EQ(gather, stats.gather_tasks);
    EXPECT_EQ(produced, stats.message_tables);
    EXPECT_EQ(skipped, stats.skipped_tasks);
    EXPECT_GT(compute_s, 0.0);
    EXPECT_GT(gather_s, 0.0);
  }
}

TEST_F(EndToEndTest, TelemetryExportersRoundTripARealRun) {
  const graph::Graph g = graph::MakeWebGraph(200, 3, 23);
  {
    auto conn = dbc::DriverManager::GetConnection(Url());
    graph::LoadEdges(*conn, g);
  }
  core::SqloopOptions options;
  options.mode = core::ExecutionMode::kSync;
  options.partitions = 4;
  options.threads = 2;
  core::SqLoop loop(Url());
  loop.Execute(core::workloads::PageRankQuery(4), options);

  const auto recorder = loop.last_run().recorder;
  ASSERT_NE(recorder, nullptr);
  if (telemetry::kHooksEnabled) {
    // Statement counters attributed across both layers and all threads.
    EXPECT_GT(recorder->counter("dbc.statements"), 0u);
    EXPECT_GT(recorder->counter("dbc.round_trips"), 0u);
    EXPECT_GT(recorder->counter("minidb.rows_examined"), 0u);
    EXPECT_GT(recorder->span_count(), 0u);
  }

  // JSONL round-trips losslessly through the reader.
  const std::string jsonl = telemetry::JsonLines(*recorder);
  EXPECT_FALSE(jsonl.empty());
  std::istringstream in(jsonl);
  telemetry::Recorder parsed;
  telemetry::ReadJsonLines(in, parsed);
  EXPECT_EQ(telemetry::JsonLines(parsed), jsonl);
  EXPECT_EQ(parsed.iteration_count(), recorder->iteration_count());
  EXPECT_EQ(parsed.span_count(), recorder->span_count());

  // The Prometheus snapshot reflects the same run.
  const std::string prom = telemetry::PrometheusSnapshot(*recorder);
  EXPECT_NE(prom.find("sqloop_iterations_total " +
                      std::to_string(loop.last_run().iterations)),
            std::string::npos);
  EXPECT_NE(prom.find("sqloop_updates_total " +
                      std::to_string(loop.last_run().total_updates)),
            std::string::npos);
}

TEST_F(EndToEndTest, CsvRoundTripThroughTheFullStack) {
  const graph::Graph g = graph::MakeHostGraph(5, 6, 20, 2);
  const std::string path = ::testing::TempDir() + "/e2e_edges.csv";
  g.SaveCsv(path);
  const graph::Graph loaded = graph::Graph::LoadCsv(path);
  {
    auto conn = dbc::DriverManager::GetConnection(Url());
    graph::LoadEdges(*conn, loaded);
  }
  core::SqLoop loop(Url());
  const auto result = loop.Execute(core::workloads::DescendantQuery(0));
  const auto bfs = graph::BfsHops(g, 0);
  EXPECT_EQ(result.rows.size(), bfs.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sqloop
