// The resilience acceptance suite (ctest label: resilience): under seeded
// fault injection — connection drops, transient errors, slowness — every
// execution mode must converge to answers bit-identical to a fault-free
// run, with the retry/reopen/degradation machinery visibly engaged in the
// run's statistics. Faults are injected before the engine applies a
// statement (see DESIGN.md "Failure model & resilience"), so retries are
// exactly-once safe and the comparison below can demand equality, not
// tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "core/resilience.h"
#include "core/workloads.h"
#include "dbc/driver.h"
#include "dbc/prepared_statement.h"
#include "graph/generators.h"
#include "minidb/server.h"
#include "tests/core/core_test_util.h"

namespace sqloop::core {
namespace {

using testing::CoreFixtureBase;

/// Rows rendered to strings and sorted: the canonical form two runs must
/// agree on bit for bit.
std::vector<std::string> Canonical(const dbc::ResultSet& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string flat;
    for (const auto& value : row) {
      flat += value.ToString();
      flat += '|';
    }
    rows.push_back(std::move(flat));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The minidb host name inside a fixture URL ("minidb://<host>/db?...").
std::string HostOf(const std::string& url) {
  const auto start = url.find("://") + 3;
  return url.substr(start, url.find('/', start) - start);
}

/// Thread-safe event collector for OnRetry/OnDegrade.
class ResilienceObserver : public ExecutionObserver {
 public:
  void OnRetry(const RetryEvent& event) override {
    const std::scoped_lock lock(mutex_);
    ++retries_;
    last_error_ = event.error;
  }
  void OnDegrade(const DegradeEvent& event) override {
    const std::scoped_lock lock(mutex_);
    if (event.kind == DegradeEvent::Kind::kWorkerRetired) ++workers_retired_;
    if (event.kind == DegradeEvent::Kind::kMasterTookOver) ++takeovers_;
  }
  int retries() const {
    const std::scoped_lock lock(mutex_);
    return retries_;
  }
  int workers_retired() const {
    const std::scoped_lock lock(mutex_);
    return workers_retired_;
  }
  int takeovers() const {
    const std::scoped_lock lock(mutex_);
    return takeovers_;
  }

 private:
  mutable std::mutex mutex_;
  int retries_ = 0;
  int workers_retired_ = 0;
  int takeovers_ = 0;
  std::string last_error_;
};

/// 10% drops + 10% transient errors, retried under a generous budget with
/// no backoff sleeps (tests should be fast, not patient).
constexpr const char* kFaultParams =
    "&fault_seed=42&fault_drop_rate=0.1&fault_transient_rate=0.1";

SqloopOptions ResilientOptions(ExecutionMode mode, int threads) {
  SqloopOptions options;
  options.mode = mode;
  options.partitions = 8;
  options.threads = threads;
  options.retry.max_attempts = 10;
  options.retry.backoff_base_ms = 0;
  return options;
}

/// Runs `query` fault-free and faulted on two identical fixtures and
/// returns both canonicalized results plus the faulted run's stats.
struct ComparisonResult {
  std::vector<std::string> clean;
  std::vector<std::string> faulted;
  RunStats stats;
};

ComparisonResult RunBothWays(const graph::Graph& g, const std::string& query,
                             const SqloopOptions& options) {
  ComparisonResult out;
  {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url(), options);
    out.clean = Canonical(loop.Execute(query));
  }
  {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url() + kFaultParams, options);
    out.faulted = Canonical(loop.Execute(query));
    out.stats = loop.last_run();
  }
  return out;
}

TEST(ResilienceTest, PageRankBitIdenticalUnderFaultsAllModes) {
  const graph::Graph g = graph::MakeWebGraph(120, 3, 7);
  const std::string query = workloads::PageRankQuery(6);
  for (const ExecutionMode mode :
       {ExecutionMode::kSingleThread, ExecutionMode::kSync,
        ExecutionMode::kAsync, ExecutionMode::kAsyncPriority}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    // threads=1 pins the async schedules: with one worker the task order —
    // and therefore PageRank's floating-point summation order — is
    // identical with and without faults, so equality is exact.
    const auto r = RunBothWays(g, query, ResilientOptions(mode, /*threads=*/1));
    EXPECT_EQ(r.clean, r.faulted);
    EXPECT_GT(r.stats.retries, 0u);
    EXPECT_GT(r.stats.reopened_connections, 0u);
  }
}

TEST(ResilienceTest, SsspBitIdenticalUnderFaultsMultiThreaded) {
  // SSSP's Gather is a MIN — order-independent exactly — so the fixpoint
  // is bit-identical at any thread count, faults or not.
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  const std::string query = workloads::SsspAllQuery(1);
  for (const ExecutionMode mode : {ExecutionMode::kSync, ExecutionMode::kAsync}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    const auto r = RunBothWays(g, query, ResilientOptions(mode, /*threads=*/3));
    EXPECT_EQ(r.clean, r.faulted);
    EXPECT_GT(r.stats.retries, 0u);
  }
}

TEST(ResilienceTest, FaultFreeRunsReportZeroResilienceCounters) {
  // Pool-start opens are not recoveries; an undisturbed run must read as
  // undisturbed.
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(graph::MakeWebGraph(60, 3, 3));
  SqLoop loop(fixture.Url(), ResilientOptions(ExecutionMode::kSync, 3));
  loop.Execute(workloads::PageRankQuery(3));
  const RunStats& stats = loop.last_run();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.reopened_connections, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.degraded_rounds, 0u);
  EXPECT_EQ(stats.workers_retired, 0u);
}

TEST(ResilienceTest, FatalErrorAbortsPromptlyWithOriginalType) {
  // A fatal error must cut through active fault injection untouched: no
  // retry, no RetryExhausted wrapper, no degradation.
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(graph::MakeWebGraph(60, 3, 3));
  auto options = ResilientOptions(ExecutionMode::kSync, 2);
  options.max_iterations_guard = 2;  // PageRank below needs 6 rounds
  // A retry attempt re-runs every statement of its task, each exposed to
  // the injected 20% fault rate, so a 10-attempt budget has a small but
  // real chance of exhausting — retiring a worker for reasons unrelated
  // to what this test asserts (scheduling decides which thread draws
  // which seeded fault). Enough headroom makes exhaustion impossible in
  // practice; backoff is zero, so extra attempts cost nothing.
  options.retry.max_attempts = 50;
  SqLoop loop(fixture.Url() + kFaultParams, options);
  EXPECT_THROW(loop.Execute(workloads::PageRankQuery(6)), ExecutionError);
  EXPECT_LE(loop.last_run().iterations, 2);
  EXPECT_EQ(loop.last_run().workers_retired, 0u);
}

TEST(ResilienceTest, StatementTimeoutsAreEnforcedAndRetried) {
  const graph::Graph g = graph::MakeWebGraph(60, 3, 3);
  const std::string query = workloads::PageRankQuery(3);
  // threads=1: PageRank sums floats, so bit-identical comparison needs a
  // pinned task (and therefore summation) order — see the all-modes test.
  auto options = ResilientOptions(ExecutionMode::kSync, 1);
  options.retry.statement_timeout_ms = 1;

  std::vector<std::string> clean;
  {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url(), options);
    clean = Canonical(loop.Execute(query));
  }
  // Every 25th statement stalls. Under a 1ms deadline a 50ms stall makes
  // the injection layer raise TimeoutError instead (capping the sleep at
  // the deadline), and the statement is retried. With no deadline a 2ms
  // stall is simply waited out: the stalled task finishes on its own
  // connection and the run lands on the same fixpoint.
  struct Stall {
    const char* faults;
    int64_t timeout_ms;
  };
  for (const Stall& stall :
       {Stall{"&fault_seed=42&fault_slow_every=25&fault_slow_us=50000", 1},
        Stall{"&fault_seed=42&fault_slow_every=25&fault_slow_us=2000", 0}}) {
    SCOPED_TRACE(stall.faults);
    options.retry.statement_timeout_ms = stall.timeout_ms;
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url() + stall.faults, options);
    EXPECT_EQ(Canonical(loop.Execute(query)), clean);
    if (stall.timeout_ms > 0) {
      EXPECT_GT(loop.last_run().timeouts, 0u);
      EXPECT_GT(loop.last_run().retries, 0u);
    } else {
      EXPECT_EQ(loop.last_run().timeouts, 0u);
      EXPECT_EQ(loop.last_run().retries, 0u);
    }
  }
}

TEST(ResilienceTest, DegradationLadderRetiresWorkersAndMasterFinishes) {
  // SSSP, not PageRank: the clean run computes on two workers while the
  // degraded run finishes master-only, so the comparison needs a Gather
  // whose float result is independent of task order — MIN is, SUM is not.
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  const std::string query = workloads::SsspAllQuery(1);
  std::vector<std::string> clean;
  {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url(), ResilientOptions(ExecutionMode::kSync, 2));
    clean = Canonical(loop.Execute(query));
  }

  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  auto options = ResilientOptions(ExecutionMode::kSync, 2);
  options.retry.max_attempts = 3;
  SqLoop loop(fixture.Url(), options);
  ResilienceObserver observer;
  loop.set_observer(&observer);

  // Install the injector server-side AFTER the master connection opened:
  // every connection opened from here on — the whole worker pool — fails,
  // the workers retire, and the master (fault-free) re-executes all of
  // their tasks.
  minidb::Server* server = dbc::DriverManager::FindHost(HostOf(fixture.Url()));
  ASSERT_NE(server, nullptr);
  FaultConfig config;
  config.connect_failure_rate = 1.0;
  server->set_fault_injector(std::make_shared<FaultInjector>(config));

  const auto result = Canonical(loop.Execute(query));
  server->set_fault_injector(nullptr);

  EXPECT_EQ(result, clean);
  const RunStats& stats = loop.last_run();
  EXPECT_EQ(stats.workers_retired, 2u);
  EXPECT_GT(stats.degraded_rounds, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(observer.workers_retired(), 2);
  EXPECT_GT(observer.takeovers(), 0);
  EXPECT_GT(observer.retries(), 0);
}

TEST(ResilienceTest, DegradationCanBeDisabled) {
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(graph::MakeWebGraph(60, 3, 3));
  auto options = ResilientOptions(ExecutionMode::kSync, 2);
  options.retry.max_attempts = 2;
  options.retry.allow_degradation = false;
  SqLoop loop(fixture.Url(), options);

  minidb::Server* server = dbc::DriverManager::FindHost(HostOf(fixture.Url()));
  ASSERT_NE(server, nullptr);
  FaultConfig config;
  config.connect_failure_rate = 1.0;
  server->set_fault_injector(std::make_shared<FaultInjector>(config));

  // With the ladder disabled, exhausting the retry budget is fatal.
  EXPECT_THROW(loop.Execute(workloads::PageRankQuery(3)), RetryExhausted);
  server->set_fault_injector(nullptr);
  EXPECT_EQ(loop.last_run().workers_retired, 0u);
}

TEST(ResilienceTest, NoWorkerConnectionsLeakAfterFailedRun) {
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(graph::MakeWebGraph(60, 3, 3));
  auto options = ResilientOptions(ExecutionMode::kSync, 3);
  options.max_iterations_guard = 1;  // forces a mid-run ExecutionError
  SqLoop loop(fixture.Url(), options);

  EXPECT_THROW(loop.Execute(workloads::PageRankQuery(4)), ExecutionError);
  // Deterministic teardown: only the master connection may remain.
  EXPECT_EQ(loop.connection().database().open_connections(), 1);

  // And a successful run afterwards leaves the same single connection.
  loop.Execute(workloads::PageRankQuery(1),
               ResilientOptions(ExecutionMode::kSync, 3));
  EXPECT_EQ(loop.connection().database().open_connections(), 1);
}

TEST(ResilienceTest, PreparedHandleSurvivesDropsAndReopenWithoutRecompiling) {
  // Interplay of the prepared-execution path with fault injection: a
  // handle's compiled plan lives with the database, so an injected drop +
  // Reopen() must be transparent — same results, and no re-compile (the
  // plan-cache miss count must not move, however many retries happen).
  minidb::Server server;
  dbc::DriverManager::RegisterHost("resilience_prep", &server);
  server.CreateDatabase("db", minidb::EngineProfile::Postgres());
  auto setup = dbc::DriverManager::GetConnection(
      "minidb://resilience_prep/db?latency_us=0");
  setup->Execute("CREATE TABLE kv (k BIGINT, v BIGINT)");
  setup->Execute("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)");

  auto conn = dbc::DriverManager::GetConnection(
      "minidb://resilience_prep/db?latency_us=0"
      "&fault_seed=7&fault_drop_rate=0.2&fault_transient_rate=0.1");
  int reopens = 0;
  // The PREPARE round trip is fault-exposed like any statement.
  std::optional<dbc::PreparedStatement> stmt;
  for (int attempt = 0; !stmt.has_value(); ++attempt) {
    ASSERT_LT(attempt, 100) << "prepare retry budget exhausted";
    try {
      stmt.emplace(conn->Prepare("SELECT v FROM kv WHERE k = ?"));
    } catch (const ConnectionLostError&) {
      conn->Reopen();
      ++reopens;
    } catch (const TransientError&) {
    }
  }

  auto& cache = conn->database().plan_cache();
  const uint64_t misses0 = cache.misses();
  for (int round = 0; round < 200; ++round) {
    const int64_t k = round % 3 + 1;
    stmt->SetInt64(1, k);
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 100) << "execute retry budget exhausted";
      try {
        const auto result = stmt->ExecuteQuery();
        ASSERT_EQ(result.rows.size(), 1u);
        EXPECT_EQ(result.rows[0][0].as_int(), k * 10);
        break;
      } catch (const ConnectionLostError&) {
        conn->Reopen();
        ++reopens;
      } catch (const TransientError&) {
      }
    }
  }
  // The seeded 20% drop rate over 200+ statements guarantees real reopens,
  // and none of them sent the statement text back through the compiler.
  EXPECT_GT(reopens, 0);
  EXPECT_EQ(cache.misses(), misses0);
  dbc::DriverManager::RegisterHost("resilience_prep", nullptr);
}

TEST(ResilienceTest, PlanCacheIsInvisibleUnderFaults) {
  // The cache-on and cache-off (ablated) worlds must converge identically
  // even while drops and transient faults force retries mid-run. threads=1
  // pins the task order, so PageRank's float summation order — and thus
  // the comparison — is exact (see the all-modes test above).
  const graph::Graph g = graph::MakeWebGraph(100, 3, 11);
  const std::string query = workloads::PageRankQuery(5);
  for (const ExecutionMode mode :
       {ExecutionMode::kSingleThread, ExecutionMode::kSync}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    const auto options = ResilientOptions(mode, /*threads=*/1);
    std::vector<std::string> results[2];
    for (const bool cache_on : {true, false}) {
      CoreFixtureBase fixture("postgres");
      fixture.LoadGraph(g);
      dbc::DriverManager::GetConnection(fixture.Url())
          ->database()
          .plan_cache()
          .set_enabled(cache_on);
      SqLoop loop(fixture.Url() + kFaultParams, options);
      results[cache_on ? 0 : 1] = Canonical(loop.Execute(query));
      EXPECT_GT(loop.last_run().retries, 0u);
    }
    EXPECT_EQ(results[0], results[1]);
  }
}

TEST(ResilienceTest, LostComputeRepliesLeaveExactlyOneCopyOfEachBatch) {
  // Every third outbox INSERT or retraction applies and then drops the
  // connection before its reply: the worker cannot tell whether its rows
  // landed. The retry deletes the rows stamped with the attempt's seq and
  // produces them again, so each batch is published once with one copy of
  // its rows — a duplicate would double-count PageRank's SUM. Sync is
  // order-deterministic at any pool width, so equality is exact.
  const graph::Graph g = graph::MakeWebGraph(120, 3, 7);
  const std::string query = workloads::PageRankQuery(6);
  SqloopOptions options = ResilientOptions(ExecutionMode::kSync, 2);
  options.partitions = 4;
  std::vector<std::string> clean;
  RunStats clean_stats;
  {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url(), options);
    clean = Canonical(loop.Execute(query));
    clean_stats = loop.last_run();
  }

  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  SqLoop loop(fixture.Url(), options);
  // Server-side, after the master connected: the workers' connections —
  // the ones running Computes — carry the injector.
  minidb::Server* server = dbc::DriverManager::FindHost(HostOf(fixture.Url()));
  ASSERT_NE(server, nullptr);
  FaultConfig config;
  config.lost_reply_every = 3;
  auto injector = std::make_shared<FaultInjector>(config);
  server->set_fault_injector(injector);
  const auto faulted = Canonical(loop.Execute(query));
  server->set_fault_injector(nullptr);

  EXPECT_EQ(faulted, clean);
  const RunStats& stats = loop.last_run();
  EXPECT_GT(injector->injected(FaultKind::kLostReply), 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.message_tables, clean_stats.message_tables);
}

}  // namespace
}  // namespace sqloop::core
