#include "graph/loader.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dbc/driver.h"
#include "graph/generators.h"
#include "minidb/server.h"

namespace sqloop::graph {
namespace {

class LoaderTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    host_ = std::string("loader_host_") + GetParam();
    dbc::DriverManager::RegisterHost(host_, &server_);
    server_.CreateDatabase("g", minidb::EngineProfile::ByName(GetParam()));
    conn_ = dbc::DriverManager::GetConnection("minidb://" + host_ +
                                              "/g?latency_us=0");
  }
  void TearDown() override {
    conn_.reset();
    dbc::DriverManager::RegisterHost(host_, nullptr);
  }

  minidb::Server server_;
  std::string host_;
  std::unique_ptr<dbc::Connection> conn_;
};

TEST_P(LoaderTest, LoadsAllEdgesWithWeights) {
  const Graph g = MakeWebGraph(200, 3, 17);
  LoadEdges(*conn_, g);
  const auto count = conn_->ExecuteQuery("SELECT COUNT(*) FROM edges");
  EXPECT_EQ(static_cast<size_t>(count.rows[0][0].as_int()), g.edge_count());

  // Weight invariant: per-source weights sum to ~1.
  const auto sums = conn_->ExecuteQuery(
      "SELECT src, SUM(weight) FROM edges GROUP BY src");
  for (const auto& row : sums.rows) {
    EXPECT_NEAR(row[1].as_double(), 1.0, 1e-9) << "src " << row[0].as_int();
  }

  // Indexes exist for the join columns.
  const auto table = conn_->database().FindTable("edges");
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->HasIndexOn("src"));
  EXPECT_TRUE(table->HasIndexOn("dst"));
}

TEST_P(LoaderTest, ReloadReplacesExistingTable) {
  LoadEdges(*conn_, MakeWebGraph(100, 2, 1));
  const auto first =
      conn_->ExecuteQuery("SELECT COUNT(*) FROM edges").rows[0][0].as_int();
  LoadEdges(*conn_, MakeWebGraph(50, 2, 2));
  const auto second =
      conn_->ExecuteQuery("SELECT COUNT(*) FROM edges").rows[0][0].as_int();
  EXPECT_LT(second, first);
}

TEST_P(LoaderTest, BindsRowsBitForBitThroughAtMostTwoInsertTexts) {
  const Graph g = MakeWebGraph(200, 3, 17);
  LoadOptions options;
  options.batch_size = 7;  // many full statements plus a remainder
  ASSERT_NE(g.edge_count() % options.batch_size, 0u);
  const minidb::PlanCache& cache = conn_->database().plan_cache();
  const uint64_t misses0 = cache.misses();
  LoadEdges(*conn_, g, options);
  // DROP, CREATE TABLE and two CREATE INDEX texts, plus the full-statement
  // INSERT and the remainder INSERT: nothing else compiles.
  constexpr uint64_t kDdlTexts = 4;
  EXPECT_LE(cache.misses() - misses0, kDdlTexts + 2);

  // Rows land in insertion order, each weight exactly the double bound.
  const auto stored = conn_->ExecuteQuery("SELECT src, dst, weight FROM edges");
  ASSERT_EQ(stored.rows.size(), g.edge_count());
  for (size_t i = 0; i < g.edge_count(); ++i) {
    const Edge& edge = g.edges()[i];
    const auto& row = stored.rows[i];
    EXPECT_EQ(row[0].as_int(), edge.src) << "row " << i;
    EXPECT_EQ(row[1].as_int(), edge.dst) << "row " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(row[2].as_double()),
              std::bit_cast<uint64_t>(edge.weight))
        << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, LoaderTest,
                         ::testing::Values("postgres", "mysql", "mariadb"));

}  // namespace
}  // namespace sqloop::graph
