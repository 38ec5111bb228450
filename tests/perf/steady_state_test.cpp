// Steady-state invariants (ctest label: perf). Once the first rounds have
// compiled the round loop's fixed statements, a run issues no DDL — the
// database's catalog_version stays put, so no cached plan is re-bound —
// and parses nothing more. Measured per round through an observer, with
// the plan cache's miss count standing in for the recorder's
// sql.parse_count (every parse on the cached path is a miss; the test
// checks the two agree over the whole run). And a Sync round's cost
// follows its frontier: it dispatches a Compute only for a partition some
// Gather changed, counted per round.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
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
#if SQLOOP_TELEMETRY_ENABLED
    // Every core of the Sync job — setup, the Compute join, the Gather,
    // the final query — runs on the batch engine: a core that fell back
    // to the reference pipeline would copy its scan into a Relation.
    if (mode == ExecutionMode::kSync) {
      EXPECT_EQ(run.stats.recorder->counter("minidb.rows_materialized"), 0u);
    }
#endif
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

/// Per round: the IterationStats, and which partitions a Gather changed
/// (a changed partition is pending at the next round's Compute barrier).
class PendingProbe : public ExecutionObserver {
 public:
  void OnTaskComplete(const telemetry::TaskSpan& span) override {
    if (span.kind != telemetry::SpanKind::kGather || span.updates == 0) {
      return;
    }
    const std::scoped_lock lock(mutex_);
    changed_[span.round].insert(span.partition);
  }
  void OnRoundEnd(const telemetry::IterationStats& round) override {
    rounds_.push_back(round);
  }

  const std::vector<telemetry::IterationStats>& rounds() const {
    return rounds_;
  }
  size_t ChangedIn(int64_t round) const {
    const auto it = changed_.find(round);
    return it == changed_.end() ? 0 : it->second.size();
  }

 private:
  std::mutex mutex_;
  std::map<int64_t, std::set<int64_t>> changed_;
  std::vector<telemetry::IterationStats> rounds_;
};

TEST(SteadyStateRounds, SyncSsspComputesExactlyThePendingPartitions) {
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  SqLoop loop(fixture.Url());
  SqloopOptions options = Options(ExecutionMode::kSync);
  options.partitions = 8;
  PendingProbe probe;
  loop.set_observer(&probe);
  loop.Execute(workloads::SsspAllQuery(1), options);
  loop.set_observer(nullptr);
  const auto& rounds = probe.rounds();
  ASSERT_GE(rounds.size(), 3u);
  // The seed makes every partition pending for round 1.
  EXPECT_EQ(rounds.front().compute_tasks, 8u);
#if SQLOOP_TELEMETRY_ENABLED
  // Afterwards a round computes exactly the partitions the previous
  // round's Gathers changed.
  for (size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].compute_tasks, probe.ChangedIn(rounds[i - 1].round))
        << "round " << rounds[i].round;
  }
#endif
  // The quiescent last round has nothing pending: it dispatches no
  // Compute, so nothing is sent and no Gather runs either.
  EXPECT_EQ(rounds.back().updates, 0u);
  EXPECT_EQ(rounds.back().compute_tasks, 0u);
  EXPECT_EQ(rounds.back().gather_tasks, 0u);
  EXPECT_EQ(rounds.back().skipped_tasks, 16u);
}

TEST(SteadyStateRounds, SyncPageRankComputesEveryPartitionEveryRound) {
  const graph::Graph g = graph::MakeWebGraph(120, 3, 7);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  SqLoop loop(fixture.Url());
  PendingProbe probe;
  loop.set_observer(&probe);
  loop.Execute(workloads::PageRankQuery(6), Options(ExecutionMode::kSync));
  loop.set_observer(nullptr);
  ASSERT_EQ(probe.rounds().size(), 6u);
  for (const auto& round : probe.rounds()) {
    EXPECT_EQ(round.compute_tasks, 4u) << "round " << round.round;
  }
}

}  // namespace
}  // namespace sqloop::core
