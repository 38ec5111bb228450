// Async's schedule, pinned (ctest label: perf). With one worker the
// asynchronous dispatcher's order is fixed — each window is one pass over
// the partitions in order — so the rounds, updates and task counts of an
// Async SSSP run repeat exactly, whatever the load on the host. The
// figures below were recorded from the round-robin dispatcher this one
// replaced; AsyncP without a priority query runs the same unranked
// dispatcher and must report the same figures.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/sqloop.h"
#include "core/workloads.h"
#include "graph/generators.h"
#include "tests/core/core_test_util.h"

namespace sqloop::core {
namespace {

using testing::CoreFixtureBase;

struct Schedule {
  int partitions;
  int64_t rounds;
  uint64_t updates;
  uint64_t compute_tasks;
  uint64_t gather_tasks;
  uint64_t skipped_tasks;
};

Schedule Observed(int partitions, const RunStats& stats) {
  return {partitions,          stats.iterations,   stats.total_updates,
          stats.compute_tasks, stats.gather_tasks, stats.skipped_tasks};
}

void ExpectSame(const Schedule& expected, const Schedule& actual) {
  EXPECT_EQ(actual.rounds, expected.rounds);
  EXPECT_EQ(actual.updates, expected.updates);
  EXPECT_EQ(actual.compute_tasks, expected.compute_tasks);
  EXPECT_EQ(actual.gather_tasks, expected.gather_tasks);
  EXPECT_EQ(actual.skipped_tasks, expected.skipped_tasks);
}

TEST(AsyncSchedule, OneWorkerSsspCountsArePinned) {
  // A directed ego-net (forward-only traversal, so the frontier is sparse)
  // of 30 circles of 10, seeded.
  const graph::Graph g =
      graph::MakeEgoNetGraph(30, 10, 0.35, 42, /*bidirectional=*/false);
  const std::string query = workloads::SsspAllQuery(1);
  const Schedule pinned[] = {
      // P, rounds, updates, computes, gathers, skipped
      {16, 27, 1637, 338, 390, 136},
      {48, 19, 1721, 575, 692, 557},
      {128, 15, 1721, 821, 955, 2064},
      {256, 14, 1721, 952, 968, 5248},
  };
  for (const Schedule& expected : pinned) {
    SCOPED_TRACE("P=" + std::to_string(expected.partitions));
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url());
    SqloopOptions options;
    options.threads = 1;
    options.partitions = expected.partitions;

    options.mode = ExecutionMode::kAsync;
    loop.Execute(query, options);
    const Schedule async = Observed(expected.partitions, loop.last_run());
    ExpectSame(expected, async);

    // No priority query: nothing ranks the partitions, so AsyncP runs
    // Async's schedule.
    options.mode = ExecutionMode::kAsyncPriority;
    loop.Execute(query, options);
    ExpectSame(async, Observed(expected.partitions, loop.last_run()));
  }
}

}  // namespace
}  // namespace sqloop::core
