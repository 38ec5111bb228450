// Steady-state invariant (ctest label: perf): once the first rounds have
// compiled the round loop's fixed statements, a run issues no DDL — the
// database's catalog_version stays put, so no cached plan is re-bound —
// and parses nothing more. Measured per round through an observer, with
// the plan cache's miss count standing in for the recorder's
// sql.parse_count (every parse on the cached path is a miss; the test
// checks the two agree over the whole run).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/observer.h"
#include "core/sqloop.h"
#include "core/workloads.h"
#include "dbc/driver.h"
#include "graph/generators.h"
#include "tests/core/core_test_util.h"

namespace sqloop::core {
namespace {

using testing::CoreFixtureBase;

/// Records the catalog version and the parse count at every round border.
class SteadyStateProbe : public ExecutionObserver {
 public:
  explicit SteadyStateProbe(minidb::Database& db) : db_(db) {}

  void OnRoundStart(int64_t round) override {
    if (round == 1) parses_at_start_ = db_.plan_cache().misses();
  }
  void OnRoundEnd(const telemetry::IterationStats& round) override {
    rounds_.push_back(
        {round.round, db_.catalog_version(), db_.plan_cache().misses()});
  }

  struct Sample {
    int64_t round;
    uint64_t catalog_version;
    uint64_t parses;
  };
  const std::vector<Sample>& rounds() const { return rounds_; }
  uint64_t parses_at_start() const { return parses_at_start_; }
  /// Parses from the end of round 2 to the end of the last round.
  uint64_t ParsesAfterRound2() const {
    return rounds_.back().parses - rounds_.at(1).parses;
  }
  bool CatalogStableAfterRound2() const {
    return rounds_.back().catalog_version == rounds_.at(1).catalog_version;
  }

 private:
  minidb::Database& db_;
  uint64_t parses_at_start_ = 0;
  std::vector<Sample> rounds_;
};

struct ProbeRun {
  explicit ProbeRun(SqLoop& loop) : probe(loop.connection().database()) {}
  SteadyStateProbe probe;
  RunStats stats;
  uint64_t parses_during_run = 0;  // plan-cache misses, setup included
};

/// Runs `query` once on `loop` with a fresh probe attached.
void RunProbed(SqLoop& loop, const std::string& query,
               const SqloopOptions& options, ProbeRun& out) {
  minidb::Database& db = loop.connection().database();
  const uint64_t before = db.plan_cache().misses();
  loop.set_observer(&out.probe);
  loop.Execute(query, options);
  loop.set_observer(nullptr);
  out.stats = loop.last_run();
  out.parses_during_run = db.plan_cache().misses() - before;
}

SqloopOptions Options(ExecutionMode mode) {
  SqloopOptions options;
  options.mode = mode;
  options.partitions = 4;
  options.threads = 2;
  if (mode == ExecutionMode::kAsyncPriority) {
    options.priority_query = workloads::SsspPriorityQuery();
  }
  return options;
}

void ExpectRecorderAgrees(const ProbeRun& run) {
#if SQLOOP_TELEMETRY_ENABLED
  ASSERT_NE(run.stats.recorder, nullptr);
  EXPECT_EQ(run.stats.recorder->counter("sql.parse_count"),
            run.parses_during_run);
#else
  (void)run;
#endif
}

TEST(SteadyStateRounds, SyncAndSingleThreadPageRankParseNothingAfterRound2) {
  const graph::Graph g = graph::MakeWebGraph(120, 3, 7);
  for (const ExecutionMode mode :
       {ExecutionMode::kSingleThread, ExecutionMode::kSync}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url());
    ProbeRun run(loop);
    RunProbed(loop, workloads::PageRankQuery(6), Options(mode), run);
    ASSERT_EQ(run.probe.rounds().size(), 6u);
    EXPECT_TRUE(run.probe.CatalogStableAfterRound2());
    EXPECT_EQ(run.probe.ParsesAfterRound2(), 0u);
    ExpectRecorderAgrees(run);
  }
}

TEST(SteadyStateRounds, AsyncSsspParsesEachFixedTextAtMostOncePerRun) {
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  const std::string query = workloads::SsspAllQuery(1);
  for (const ExecutionMode mode :
       {ExecutionMode::kAsync, ExecutionMode::kAsyncPriority}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url());
    ProbeRun first(loop);
    RunProbed(loop, query, Options(mode), first);
    ASSERT_GE(first.probe.rounds().size(), 3u);
    EXPECT_TRUE(first.probe.CatalogStableAfterRound2());
    ExpectRecorderAgrees(first);
    // Within the rounds, parses are first sightings of the fixed texts:
    // at most one per (statement kind, partition), plus the master's
    // termination probe and outbox TRUNCATEs.
    const uint64_t fixed_texts = 10 * 4 + 8;
    EXPECT_LE(first.probe.rounds().back().parses -
                  first.probe.parses_at_start(),
              fixed_texts);

    // Every text the rounds need is cached by now: the same job again
    // parses nothing from its first round to its last.
    ProbeRun second(loop);
    RunProbed(loop, query, Options(mode), second);
    ASSERT_GE(second.probe.rounds().size(), 3u);
    EXPECT_EQ(second.probe.rounds().back().parses,
              second.probe.parses_at_start());
    EXPECT_TRUE(second.probe.CatalogStableAfterRound2());
  }
}

}  // namespace
}  // namespace sqloop::core
