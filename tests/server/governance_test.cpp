// Resource-governance acceptance suite (`ctest -L governance`).
//
// The properties pinned here are the governance contract (DESIGN.md
// "Resource governance & overload protection"): per-job and per-tenant
// memory budgets fail exactly the offending job with QuotaExceededError
// while every neighbour computes bit-identical results; Cancel() preempts
// a statement in flight, not just at the next round border; cancellation
// and quota breaches are never retried; the soft watermark sheds new
// admissions with a retry-after hint; the hard watermark's governor
// cancels the largest running job; Drain(deadline) cancels stragglers
// whose checkpoints let them resume under the same identity.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/error.h"
#include "core/resilience.h"
#include "core/workloads.h"
#include "graph/generators.h"
#include "minidb/database.h"
#include "minidb/executor.h"
#include "server/job_server.h"
#include "telemetry/hooks.h"
#include "tests/core/core_test_util.h"

namespace sqloop::server {
namespace {

namespace fs = std::filesystem;
using core::testing::CoreFixtureBase;

std::vector<std::string> Canonical(const dbc::ResultSet& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string text;
    for (const auto& value : row) {
      text += value.ToString();
      text += '|';
    }
    rows.push_back(std::move(text));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

core::SqloopOptions SyncOptions(int partitions = 8, int threads = 2) {
  core::SqloopOptions options;
  options.mode = core::ExecutionMode::kSync;
  options.partitions = partitions;
  options.threads = threads;
  return options;
}

core::SqloopOptions SingleThreadOptions() {
  core::SqloopOptions options;
  options.mode = core::ExecutionMode::kSingleThread;
  return options;
}

JobServerConfig ServiceConfig(const CoreFixtureBase& fixture) {
  JobServerConfig config;
  config.url = fixture.Url();
  config.worker_threads = 4;
  config.max_running_jobs = 4;
  return config;
}

/// The tenant's accumulated telemetry counter, 0 when the tenant or the
/// counter does not exist yet.
uint64_t TenantCounter(const JobServer& server, const std::string& tenant,
                       const std::string& name) {
  for (const auto& info : server.Tenants()) {
    if (info.tenant == tenant && info.recorder != nullptr) {
      return info.recorder->counter(name);
    }
  }
  return 0;
}

/// A transient-memory-hungry single statement. The batch engine streams
/// a plain two-table cross join without materializing (legitimately ~zero
/// transient memory), so governance tests need the three-way form: its
/// inner a×b join materializes |edges|^2 rows, every one charged to the
/// job's scope, and the |edges|^3 rows examined make it long enough to
/// catch a cancel genuinely mid-statement.
const char* kCrossJoin3 =
    "SELECT COUNT(*) FROM edges AS a, edges AS b, edges AS c";

class ScopedCheckpointDir {
 public:
  ScopedCheckpointDir() {
    static std::atomic<uint64_t> counter{0};
    dir_ = (fs::temp_directory_path() /
            ("sqloop_governance_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1))))
               .string();
    fs::create_directories(dir_);
  }
  ~ScopedCheckpointDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

void WaitForState(const JobHandle& job, JobState state) {
  for (int i = 0; i < 20000; ++i) {
    if (job.Status() == state || job.Done()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

TEST(GovernanceTest, PerJobBudgetFailsOnlyTheOffendingJob) {
  const graph::Graph g = graph::MakeWebGraph(80, 3, 7);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);

  JobServer server(ServiceConfig(fixture));
  Session session = server.OpenSession("tenant");

  // 240 edges squared is megabytes of transient rows: a 64 KiB job budget
  // must fail the statement at a clean boundary with the quota error.
  core::SqloopOptions capped = SingleThreadOptions();
  capped.memory_limit_bytes = 64 * 1024;
  JobHandle hungry = session.Submit(kCrossJoin3, capped);
  EXPECT_THROW(hungry.Wait(), QuotaExceededError);
  EXPECT_EQ(hungry.Status(), JobState::kFailed);
  EXPECT_NE(hungry.error_message().find("quota exceeded"),
            std::string::npos);
  EXPECT_GE(TenantCounter(server, "tenant", "governance.quota_rejections"),
            1u);

  // The same tenant — and the same statement — runs fine without the
  // budget: the failed job released everything it had charged.
  const int64_t edges = session
                            .Submit("SELECT COUNT(*) FROM edges",
                                    SingleThreadOptions())
                            .Wait()
                            .rows[0][0]
                            .as_int();
  ASSERT_GT(edges, 100);
  JobHandle fine = session.Submit(kCrossJoin3, SingleThreadOptions());
  const auto result = fine.Wait();
  EXPECT_EQ(result.rows[0][0].as_int(), edges * edges * edges);
  EXPECT_EQ(fine.Status(), JobState::kCompleted);
}

TEST(GovernanceTest, TenantBudgetCapsItsJobsWithoutTouchingNeighbours) {
  const graph::Graph g = graph::MakeWebGraph(80, 3, 7);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  const std::string query = core::workloads::PageRankQuery(6);

  // Solo reference for the well-behaved tenant.
  std::vector<std::string> solo;
  {
    core::SqLoop loop(fixture.Url(), SyncOptions());
    solo = Canonical(loop.Execute(query));
  }

  JobServer server(ServiceConfig(fixture));

  // The greedy tenant's whole session runs under a 64 KiB budget.
  SessionOptions tight;
  tight.memory_limit_bytes = 64 * 1024;
  Session greedy = server.OpenSession("greedy", tight);
  Session good = server.OpenSession("good");

  // Both tenants in flight at once: the greedy one keeps slamming into
  // its budget while the good one computes PageRank undisturbed.
  std::vector<JobHandle> greedy_jobs;
  std::vector<JobHandle> good_jobs;
  for (int i = 0; i < 2; ++i) {
    greedy_jobs.push_back(greedy.Submit(kCrossJoin3, SingleThreadOptions()));
    good_jobs.push_back(good.Submit(query, SyncOptions()));
  }
  for (const auto& job : greedy_jobs) {
    EXPECT_THROW(job.Wait(), QuotaExceededError);
    EXPECT_EQ(job.Status(), JobState::kFailed);
  }
  // Isolation: bit-identical results, zero resilience or failure counters.
  for (const auto& job : good_jobs) {
    EXPECT_EQ(Canonical(job.Wait()), solo);
    EXPECT_EQ(job.Status(), JobState::kCompleted);
    EXPECT_EQ(job.Stats().retries, 0u);
  }
  for (const auto& tenant : server.Tenants()) {
    if (tenant.tenant == "good") {
      EXPECT_EQ(tenant.jobs_completed, 2u);
      EXPECT_EQ(tenant.jobs_failed, 0u);
    }
    if (tenant.tenant == "greedy") {
      EXPECT_EQ(tenant.jobs_failed, 2u);
    }
  }
  EXPECT_GE(TenantCounter(server, "greedy", "governance.quota_rejections"),
            2u);
}

TEST(GovernanceTest, FacadeMemoryLimitOptionIsEnforced) {
  const graph::Graph g = graph::MakeWebGraph(80, 3, 7);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);

  core::SqloopOptions capped = SingleThreadOptions();
  capped.memory_limit_bytes = 64 * 1024;
  core::SqLoop loop(fixture.Url(), capped);
  EXPECT_THROW(loop.Execute(kCrossJoin3), QuotaExceededError);
  // The facade survives the failed run.
  const auto ok = loop.Execute("SELECT COUNT(*) FROM edges");
  EXPECT_GT(ok.rows[0][0].as_int(), 0);
}

TEST(GovernanceTest, CancelPreemptsAStatementInFlight) {
  // ~600 edges cubed is a >10^8-row cross join: seconds of engine work in
  // ONE statement. Cancel() must cut it off mid-loop, not wait it out.
  const graph::Graph g = graph::MakeWebGraph(200, 3, 7);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);

  JobServer server(ServiceConfig(fixture));
  Session session = server.OpenSession("tenant");

  // Safety net: if mid-statement cancellation regressed, the job budget
  // aborts the join long before it OOMs the test runner — and the error
  // type (quota, not cancelled) fails the test with a clear signal.
  core::SqloopOptions options = SingleThreadOptions();
  options.memory_limit_bytes = 256LL * 1024 * 1024;
  JobHandle job = session.Submit(kCrossJoin3, options);
  WaitForState(job, JobState::kRunning);
  // Give the engine time to be genuinely inside the join loops.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const auto cancelled_at = std::chrono::steady_clock::now();
  job.Cancel();
  EXPECT_THROW(job.Wait(), JobCancelledError);
  const auto latency = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - cancelled_at)
                           .count();
  EXPECT_EQ(job.Status(), JobState::kCancelled);
  // The governor check fires every cancel_check_rows rows — far inside
  // the statement, so the cancel returns in well under the seconds the
  // full join needs.
  EXPECT_LT(latency, 2000) << "cancel had to wait the statement out";
#if SQLOOP_TELEMETRY_ENABLED
  EXPECT_GE(TenantCounter(server, "tenant",
                          "governance.mid_statement_cancels"),
            1u);
#endif
  // Regression (the Retrier must classify cancellation as fatal): the
  // cancelled statement was never retried.
  EXPECT_EQ(job.Stats().retries, 0u);

  // The server keeps serving afterwards.
  JobHandle next = session.Submit("SELECT COUNT(*) FROM edges",
                                  SingleThreadOptions());
  EXPECT_GT(next.Wait().rows[0][0].as_int(), 0);
}

TEST(GovernanceTest, CancelLatencyStaysUnderOneRoundOnBatchedPath) {
  // The batch engine ticks the governor once per RowBatch
  // (GovTickRows), so a cancel_check_rows budget is consumed in
  // batch-sized strides: the token is consulted every
  // ⌈cancel_check_rows / batch_size⌉ batches, never deferred to a round
  // border. This pins that latency contract on the batched data plane —
  // the default plane — under an explicit check budget far below the
  // statement's row volume.
  const graph::Graph g = graph::MakeWebGraph(200, 3, 7);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);

  JobServer server(ServiceConfig(fixture));
  Session session = server.OpenSession("tenant");

  // A quick statement first proves this tenant's scans really run on the
  // batched plane (the long join below dies cancelled, so its own
  // telemetry never flushes).
  session
      .Submit("SELECT COUNT(*) FROM edges WHERE src >= 0",
              SingleThreadOptions())
      .Wait();
#if SQLOOP_TELEMETRY_ENABLED
  EXPECT_GE(TenantCounter(server, "tenant", "minidb.batches_produced"), 1u);
  EXPECT_GE(TenantCounter(server, "tenant", "minidb.vectorized_cores"), 1u);
#endif

  core::SqloopOptions options = SingleThreadOptions();
  options.memory_limit_bytes = 256LL * 1024 * 1024;
  // Four batches' worth of rows between governor syncs — a tighter budget
  // than the default, honored at batch granularity.
  options.cancel_check_rows = 4096;
  JobHandle job = session.Submit(kCrossJoin3, options);
  WaitForState(job, JobState::kRunning);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const auto cancelled_at = std::chrono::steady_clock::now();
  job.Cancel();
  EXPECT_THROW(job.Wait(), JobCancelledError);
  const auto latency = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - cancelled_at)
                           .count();
  EXPECT_EQ(job.Status(), JobState::kCancelled);
  // One "round" here is the whole cross join — seconds of engine work.
  // The batch-granular governor must come back orders of magnitude
  // sooner.
  EXPECT_LT(latency, 2000) << "batched path deferred the cancel";
#if SQLOOP_TELEMETRY_ENABLED
  EXPECT_GE(TenantCounter(server, "tenant",
                          "governance.mid_statement_cancels"),
            1u);
#endif
}

TEST(GovernanceTest, JoinFanOutCountsTowardCancelCheckRows) {
  // A hash join on a single-valued key: the scans, the build and the probe
  // read 4 x 50 rows, but the join emits 50 x 50 = 2,500 combined rows.
  // Every combined row ticks the governor, so with the token already
  // cancelled the statement stops within cancel_check_rows = 500 emitted
  // rows instead of finishing on its fan-out.
  minidb::Database db("governance");
  minidb::Executor exec(db);
  exec.ExecuteSql("CREATE TABLE l (k BIGINT, v BIGINT)");
  exec.ExecuteSql("CREATE TABLE r (k BIGINT, v BIGINT)");
  for (int i = 0; i < 50; ++i) {
    exec.ExecuteSql("INSERT INTO l VALUES (1, " + std::to_string(i) + ")");
    exec.ExecuteSql("INSERT INTO r VALUES (1, " + std::to_string(i) + ")");
  }
  const std::string join =
      "SELECT l.v, SUM(r.v) FROM l JOIN r ON l.k = r.k GROUP BY l.v";
  CancelToken token;
  exec.set_cancel_token(&token);
  exec.set_cancel_check_rows(500);
  EXPECT_EQ(exec.ExecuteSql(join).rows.size(), 50u);

  token.Request(CancelReason::kCancelled, "cancelled mid-join");
  EXPECT_THROW(exec.ExecuteSql(join), JobCancelledError);
  exec.set_cancel_token(nullptr);
}

TEST(GovernanceTest, RetrierNeverRetriesCancellationOrQuota) {
  CoreFixtureBase fixture("postgres");
  auto conn = dbc::DriverManager::GetConnection(fixture.Url());

  core::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_base_ms = 0;

  {
    core::Retrier retrier(policy, nullptr, nullptr);
    int calls = 0;
    EXPECT_THROW(retrier.Run(*conn, "stmt", 0,
                             [&]() -> int {
                               ++calls;
                               throw JobCancelledError("stop");
                             }),
                 JobCancelledError);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(retrier.retries(), 0u);
  }
  {
    core::Retrier retrier(policy, nullptr, nullptr);
    int calls = 0;
    EXPECT_THROW(retrier.Run(*conn, "stmt", 0,
                             [&]() -> int {
                               ++calls;
                               throw QuotaExceededError("over budget");
                             }),
                 QuotaExceededError);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(retrier.retries(), 0u);
  }
  // Control: a transient error IS retried under the same policy.
  {
    core::Retrier retrier(policy, nullptr, nullptr);
    int calls = 0;
    const int result = retrier.Run(*conn, "stmt", 0, [&]() -> int {
      if (++calls < 3) throw TransientError("flake");
      return 7;
    });
    EXPECT_EQ(result, 7);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(retrier.retries(), 2u);
  }
}

TEST(GovernanceTest, SoftWatermarkShedsNewSubmissions) {
  const graph::Graph g = graph::MakeWebGraph(40, 2, 5);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);

  // The loaded edge table alone crosses a 1-byte soft watermark, so the
  // server starts (and stays) in shed mode.
  JobServerConfig config = ServiceConfig(fixture);
  config.soft_memory_limit_bytes = 1;
  config.retry_after_ms = 85;
  JobServer server(config);
  EXPECT_TRUE(server.shedding());
  EXPECT_GT(server.memory_reserved_bytes(), 1);

  Session session = server.OpenSession("tenant");
  try {
    session.Submit("SELECT COUNT(*) FROM edges", SingleThreadOptions());
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.retry_after_ms(), 85);
    EXPECT_NE(std::string(e.what()).find("soft memory watermark"),
              std::string::npos);
  }
  EXPECT_GE(server.shed_admissions(), 1u);
  EXPECT_GE(TenantCounter(server, "tenant", "governance.shed_admissions"),
            1u);

  // A server with headroom admits the same work.
  JobServerConfig roomy = ServiceConfig(fixture);
  roomy.soft_memory_limit_bytes = 1LL << 40;
  JobServer open_server(roomy);
  EXPECT_FALSE(open_server.shedding());
  Session ok = open_server.OpenSession("tenant");
  EXPECT_GT(ok.Submit("SELECT COUNT(*) FROM edges", SingleThreadOptions())
                .Wait()
                .rows[0][0]
                .as_int(),
            0);
}

TEST(GovernanceTest, HardWatermarkGovernorCancelsTheHungriestJob) {
  const graph::Graph g = graph::MakeWebGraph(80, 3, 7);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);

  // Measure the storage baseline first, then set the hard watermark a
  // couple of megabytes above it: only a genuinely hungry job can cross.
  int64_t baseline = 0;
  {
    JobServer probe(ServiceConfig(fixture));
    baseline = probe.memory_reserved_bytes();
  }
  EXPECT_GT(baseline, 0);

  JobServerConfig config = ServiceConfig(fixture);
  config.hard_memory_limit_bytes = baseline + 2 * 1024 * 1024;
  config.governor_poll_ms = 1;
  JobServer server(config);
  Session session = server.OpenSession("tenant");

  // No per-job budget: the governor, not the job's own quota, must stop
  // the statement once its transient charges push the backend root over
  // the hard watermark.
  JobHandle victim = session.Submit(kCrossJoin3, SingleThreadOptions());
  EXPECT_THROW(victim.Wait(), QuotaExceededError);
  EXPECT_EQ(victim.Status(), JobState::kFailed);
  EXPECT_NE(victim.error_message().find("hard memory watermark"),
            std::string::npos);
  EXPECT_GE(server.victim_cancellations(), 1u);
  EXPECT_GE(TenantCounter(server, "tenant",
                          "governance.victim_cancellations"),
            1u);

  // The victim's reservation is fully released, so the server drops back
  // under the watermark and keeps serving small work.
  for (int i = 0;
       i < 20000 &&
       server.memory_reserved_bytes() >= config.hard_memory_limit_bytes;
       ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_LT(server.memory_reserved_bytes(), config.hard_memory_limit_bytes);
  JobHandle next = session.Submit("SELECT COUNT(*) FROM edges",
                                  SingleThreadOptions());
  EXPECT_GT(next.Wait().rows[0][0].as_int(), 0);
}

TEST(GovernanceTest, DrainDeadlineCancelsStragglersWhoResumeByCheckpoint) {
  const graph::Graph g = graph::MakeWebGraph(60, 3, 3);
  const std::string query = core::workloads::PageRankQuery(8);

  // Clean reference on a separate database.
  std::vector<std::string> clean;
  {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    core::SqLoop loop(fixture.Url(), SyncOptions());
    clean = Canonical(loop.Execute(query));
  }

  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  ScopedCheckpointDir dir;
  core::SqloopOptions options = SyncOptions();
  options.checkpoint_every = 1;
  options.checkpoint_dir = dir.path();

  uint64_t cancelled_id = 0;
  {
    JobServer server(ServiceConfig(fixture));
    // The tenant's backend models heavy per-row server work, so each of
    // the 8 rounds takes a large multiple of the drain deadline — the job
    // is guaranteed to still be running when the deadline expires.
    // (Checkpoint identity hashes the query, not the URL knobs, so the
    // resumed run below — without the slowdown — keeps the lineage.)
    SessionOptions slow;
    slow.url_params = "row_cost_ns=400000";
    Session session = server.OpenSession("tenant", slow);
    JobHandle straggler = session.Submit(query, options);
    for (int i = 0; i < 20000 && straggler.rounds() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    EXPECT_FALSE(straggler.Done());
    server.Drain(/*deadline_ms=*/100);
    EXPECT_TRUE(server.draining());
    EXPECT_TRUE(straggler.Done());
    EXPECT_EQ(straggler.Status(), JobState::kCancelled);
    EXPECT_GT(straggler.rounds(), 0);
    cancelled_id = straggler.id();
    EXPECT_THROW(session.Submit(query, options), AdmissionError);
  }

  // A fresh server resumes the cancelled job's checkpoints under the same
  // identity and converges to the clean answer.
  JobServer server(ServiceConfig(fixture));
  core::SqloopOptions resume = options;
  resume.resume = true;
  Session session = server.OpenSession("tenant");
  JobHandle finished = session.Submit(query, resume);
  EXPECT_EQ(Canonical(finished.Wait()), clean);
  EXPECT_EQ(finished.id(), cancelled_id);
  EXPECT_GT(finished.Stats().resumed_from_round, 0);
}

TEST(GovernanceTest, GovernanceGaugesSurfaceInTenantTelemetry) {
  const graph::Graph g = graph::MakeWebGraph(40, 2, 5);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);

  JobServer server(ServiceConfig(fixture));
  Session session = server.OpenSession("tenant");
  session.Submit(kCrossJoin3, SingleThreadOptions()).WaitDone();

  // The cross join charged megabytes of transient rows against the
  // tenant scope; its peak survives job completion, while the live
  // reservation has been released with the job.
  EXPECT_GT(TenantCounter(server, "tenant", "governance.bytes_peak"), 0u);
  EXPECT_GT(server.memory_reserved_bytes(), 0);  // storage stays resident
}

}  // namespace
}  // namespace sqloop::server
