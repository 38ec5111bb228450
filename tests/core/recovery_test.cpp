// The checkpoint/recovery acceptance suite (ctest label: recovery): a job
// killed mid-run by fault_kill_at_round must resume from its newest valid
// checkpoint and finish bit-identical to an uninterrupted run, in every
// execution mode. Corrupt checkpoints (torn manifest, flipped dump byte)
// must be skipped — falling back to the previous checkpoint and ultimately
// to a fresh run — never trusted. The suite also covers the rebalancing
// of tasks stranded on retired workers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "common/fault.h"
#include "core/workloads.h"
#include "dbc/driver.h"
#include "graph/generators.h"
#include "minidb/server.h"
#include "tests/core/core_test_util.h"

namespace sqloop::core {
namespace {

namespace fs = std::filesystem;
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

/// A unique on-disk checkpoint directory, removed when the test ends. The
/// pid is part of the name because ctest runs each TEST as its own process
/// (gtest_discover_tests), possibly concurrently.
class ScopedCheckpointDir {
 public:
  ScopedCheckpointDir() {
    static std::atomic<uint64_t> counter{0};
    dir_ = (fs::temp_directory_path() /
            ("sqloop_recovery_" + std::to_string(::getpid()) + "_" +
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

/// All ckpt_<round> directories under `root`, newest first (the round is
/// zero-padded, so lexicographic order is numeric order).
std::vector<fs::path> CheckpointsNewestFirst(const std::string& root) {
  std::vector<fs::path> dirs;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("ckpt_", 0) == 0) {
      dirs.push_back(entry.path());
    }
  }
  std::sort(dirs.begin(), dirs.end(), std::greater<>());
  return dirs;
}

void TruncateFile(const fs::path& file) {
  fs::resize_file(file, fs::file_size(file) / 2);
}

/// Flips one payload byte (past the 8-byte magic), breaking the CRC seal
/// without touching the file's size or header.
void FlipByte(const fs::path& file) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << file;
  f.seekg(12);
  char c = 0;
  f.get(c);
  f.seekp(12);
  f.put(static_cast<char>(c ^ 0x5a));
}

SqloopOptions BaseOptions(ExecutionMode mode, int threads) {
  SqloopOptions options;
  options.mode = mode;
  options.partitions = 8;
  options.threads = threads;
  return options;
}

/// Clean reference + kill/resume pair. The killed run and the resumed run
/// share one fixture (one database): the kill leaves the base tables in
/// place and the checkpoints on disk, exactly like a crashed process would.
struct RecoveryOutcome {
  std::vector<std::string> clean;
  std::vector<std::string> resumed;
  RunStats clean_stats;
  RunStats kill_stats;
  RunStats resume_stats;
};

RecoveryOutcome KillThenResume(
    const graph::Graph& g, const std::string& query, ExecutionMode mode,
    int threads, int64_t kill_round, int64_t cadence = 1,
    const std::function<void(const std::string&)>& corrupt = nullptr) {
  RecoveryOutcome out;
  {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url(), BaseOptions(mode, threads));
    out.clean = Canonical(loop.Execute(query));
    out.clean_stats = loop.last_run();
  }

  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  ScopedCheckpointDir dir;
  SqloopOptions options = BaseOptions(mode, threads);
  options.checkpoint_every = cadence;
  options.checkpoint_dir = dir.path();
  {
    SqLoop loop(fixture.Url() + "&fault_kill_at_round=" +
                    std::to_string(kill_round),
                options);
    EXPECT_THROW(loop.Execute(query), JobKilledError);
    out.kill_stats = loop.last_run();
  }
  if (corrupt) corrupt(dir.path());

  options.resume = true;
  SqLoop loop(fixture.Url(), options);
  out.resumed = Canonical(loop.Execute(query));
  out.resume_stats = loop.last_run();
  return out;
}

TEST(RecoveryTest, PageRankKilledMidRunResumesBitIdenticalAllModes) {
  const graph::Graph g = graph::MakeWebGraph(120, 3, 7);
  const std::string query = workloads::PageRankQuery(6);
  for (const ExecutionMode mode :
       {ExecutionMode::kSingleThread, ExecutionMode::kSync,
        ExecutionMode::kAsync, ExecutionMode::kAsyncPriority}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    // threads=1 pins the async task order, so PageRank's floating-point
    // summation order — and the comparison — is exact (see the resilience
    // suite for the same reasoning).
    const auto r =
        KillThenResume(g, query, mode, /*threads=*/1, /*kill_round=*/3);
    EXPECT_EQ(r.clean, r.resumed);
    // Kill fires at the start of round 3: rounds 1 and 2 completed and were
    // checkpointed (cadence 1), so the resume picks up after round 2.
    EXPECT_EQ(r.kill_stats.checkpoints_written, 2u);
    EXPECT_EQ(r.resume_stats.resumed_from_round, 2);
  }
}

TEST(RecoveryTest, SsspResumesBitIdenticalMultiThreaded) {
  // SSSP's Gather is a MIN — order-independent exactly — so the fixpoint is
  // bit-identical at any thread count, interrupted or not.
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  const std::string query = workloads::SsspAllQuery(1);
  for (const ExecutionMode mode :
       {ExecutionMode::kSync, ExecutionMode::kAsync,
        ExecutionMode::kAsyncPriority}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    const auto r =
        KillThenResume(g, query, mode, /*threads=*/3, /*kill_round=*/2);
    EXPECT_EQ(r.clean, r.resumed);
    EXPECT_EQ(r.resume_stats.resumed_from_round, 1);
  }
}

TEST(RecoveryTest, SyncSsspThatSkipsComputesResumesBitIdentical) {
  // Once the frontier narrows, Sync SSSP sits clean partitions' Computes
  // out. A resume marks every partition pending again; the Computes it
  // then runs on clean partitions are no-ops, so the resumed run converges
  // bit-identically, in as many rounds.
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  const std::string query = workloads::SsspAllQuery(1);
  const RunStats probe = [&] {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url(), BaseOptions(ExecutionMode::kSync, 3));
    loop.Execute(query);
    return loop.last_run();
  }();
  // Kill one round after the first round that skipped a Compute.
  int64_t first_skip = 0;
  for (const auto& round : probe.per_iteration()) {
    if (round.compute_tasks < 8) {
      first_skip = round.round;
      break;
    }
  }
  ASSERT_GT(first_skip, 0);
  const int64_t kill_round = first_skip + 1;
  ASSERT_LT(kill_round, probe.iterations);
  const auto r = KillThenResume(g, query, ExecutionMode::kSync,
                                /*threads=*/3, kill_round);
  EXPECT_EQ(r.clean, r.resumed);
  EXPECT_GT(r.clean_stats.skipped_tasks, 0u);
  EXPECT_EQ(r.resume_stats.resumed_from_round, kill_round - 1);
  EXPECT_EQ(r.resume_stats.iterations, r.clean_stats.iterations);
  EXPECT_GT(r.resume_stats.skipped_tasks, 0u);
}

TEST(RecoveryTest, UnchangedStateReusesSealedDumpsAndResumesBitIdentical) {
  // SSSP bounded by an iteration count past its convergence: once the
  // distances settle a round changes no state table, so every checkpoint
  // republishes the previous round's sealed dumps instead of dumping again
  // (Sync's outboxes are drained at every round border, so they qualify
  // from the first round). A kill after such checkpoints must resume from
  // the republished files bit-identically.
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  for (const ExecutionMode mode :
       {ExecutionMode::kSingleThread, ExecutionMode::kSync}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    // UNTIL 0 UPDATES stops at the first round that changed nothing.
    const int64_t converged = [&] {
      CoreFixtureBase fixture("postgres");
      fixture.LoadGraph(g);
      SqLoop loop(fixture.Url(), BaseOptions(mode, 3));
      loop.Execute(workloads::SsspAllQuery(1));
      return loop.last_run().iterations;
    }();
    std::string query = workloads::SsspAllQuery(1);
    query.replace(query.find("0 UPDATES"), 9,
                  std::to_string(converged + 4) + " ITERATIONS");
    // Rounds converged .. converged + 2 are checkpointed from reused dumps
    // before the kill; the resume restores round converged + 2's.
    const int64_t kill_round = converged + 3;
    const auto r = KillThenResume(g, query, mode, /*threads=*/3, kill_round);
    EXPECT_EQ(r.clean, r.resumed);
    EXPECT_GT(r.kill_stats.checkpoint_dumps_reused, 0u);
    EXPECT_EQ(r.resume_stats.resumed_from_round, kill_round - 1);
    EXPECT_EQ(r.resume_stats.iterations, converged + 4);
  }
}

TEST(RecoveryTest, KillBeforeFirstCheckpointFallsBackToFreshRun) {
  // Killed at the start of round 1 nothing was ever checkpointed; `resume`
  // must degrade gracefully to a fresh — and still correct — run.
  const graph::Graph g = graph::MakeWebGraph(80, 3, 5);
  const std::string query = workloads::PageRankQuery(4);
  for (const ExecutionMode mode :
       {ExecutionMode::kSingleThread, ExecutionMode::kSync}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    const auto r =
        KillThenResume(g, query, mode, /*threads=*/1, /*kill_round=*/1);
    EXPECT_EQ(r.clean, r.resumed);
    EXPECT_EQ(r.kill_stats.checkpoints_written, 0u);
    EXPECT_EQ(r.resume_stats.resumed_from_round, 0);
  }
}

TEST(RecoveryTest, KillAtFinalRoundResumesAndFinishes) {
  const graph::Graph g = graph::MakeWebGraph(80, 3, 5);
  const std::string query = workloads::PageRankQuery(4);
  for (const ExecutionMode mode :
       {ExecutionMode::kSingleThread, ExecutionMode::kSync}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    // Learn the job's length from an uninterrupted run, then kill at the
    // very last round: the resume re-executes exactly one round.
    const int64_t rounds = [&] {
      CoreFixtureBase fixture("postgres");
      fixture.LoadGraph(g);
      SqLoop loop(fixture.Url(), BaseOptions(mode, 1));
      loop.Execute(query);
      return loop.last_run().iterations;
    }();
    ASSERT_GT(rounds, 2);
    const auto r =
        KillThenResume(g, query, mode, /*threads=*/1, /*kill_round=*/rounds);
    EXPECT_EQ(r.clean, r.resumed);
    EXPECT_EQ(r.resume_stats.resumed_from_round, rounds - 1);
    EXPECT_EQ(r.resume_stats.iterations, rounds);
  }
}

TEST(RecoveryTest, CheckpointCadenceControlsResumePoint) {
  // Cadence 2 checkpoints rounds 2 and 4 only; a kill at round 5 therefore
  // replays round 5 from the round-4 checkpoint, and the rounds 1/3 state
  // was never persisted.
  const graph::Graph g = graph::MakeWebGraph(120, 3, 7);
  const std::string query = workloads::PageRankQuery(6);
  const auto r = KillThenResume(g, query, ExecutionMode::kSync, /*threads=*/1,
                                /*kill_round=*/5, /*cadence=*/2);
  EXPECT_EQ(r.clean, r.resumed);
  EXPECT_EQ(r.kill_stats.checkpoints_written, 2u);
  EXPECT_EQ(r.resume_stats.resumed_from_round, 4);
}

TEST(RecoveryTest, TornManifestFallsBackToPreviousCheckpoint) {
  // A kill at round 4 leaves the two newest checkpoints (rounds 2 and 3)
  // on disk. Truncating round 3's manifest mid-file simulates a crash
  // during the (non-atomic-rename) window; recovery must skip it and
  // resume from round 2 — and still converge bit-identically.
  const graph::Graph g = graph::MakeWebGraph(120, 3, 7);
  const std::string query = workloads::PageRankQuery(6);
  const auto r = KillThenResume(
      g, query, ExecutionMode::kSingleThread, /*threads=*/1, /*kill_round=*/4,
      /*cadence=*/1, [](const std::string& root) {
        const auto ckpts = CheckpointsNewestFirst(root);
        ASSERT_EQ(ckpts.size(), 2u);  // pruned to the two newest
        TruncateFile(ckpts[0] / "manifest");
      });
  EXPECT_EQ(r.clean, r.resumed);
  EXPECT_EQ(r.resume_stats.resumed_from_round, 2);
}

TEST(RecoveryTest, CorruptDumpFileFallsBackToPreviousCheckpoint) {
  // The manifest of the newest checkpoint is intact but one partition dump
  // has a flipped byte: the CRC footer (and the manifest's content hash)
  // must catch it and recovery must fall back one checkpoint.
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  const std::string query = workloads::SsspAllQuery(1);
  const auto r = KillThenResume(
      g, query, ExecutionMode::kSync, /*threads=*/2, /*kill_round=*/3,
      /*cadence=*/1, [](const std::string& root) {
        const auto ckpts = CheckpointsNewestFirst(root);
        ASSERT_EQ(ckpts.size(), 2u);
        for (const auto& entry : fs::directory_iterator(ckpts[0])) {
          if (entry.path().extension() == ".dump") {
            FlipByte(entry.path());
            return;
          }
        }
        FAIL() << "no dump file in " << ckpts[0];
      });
  EXPECT_EQ(r.clean, r.resumed);
  EXPECT_EQ(r.resume_stats.resumed_from_round, 1);
}

TEST(RecoveryTest, AllCheckpointsCorruptFallsBackToFreshRun) {
  const graph::Graph g = graph::MakeWebGraph(80, 3, 5);
  const std::string query = workloads::PageRankQuery(4);
  const auto r = KillThenResume(
      g, query, ExecutionMode::kSync, /*threads=*/1, /*kill_round=*/3,
      /*cadence=*/1, [](const std::string& root) {
        for (const auto& ckpt : CheckpointsNewestFirst(root)) {
          TruncateFile(ckpt / "manifest");
        }
      });
  EXPECT_EQ(r.clean, r.resumed);
  EXPECT_EQ(r.resume_stats.resumed_from_round, 0);
}

TEST(RecoveryTest, UrlKnobsEnableCheckpointingWithoutOptions) {
  // checkpoint_every / checkpoint_dir carried by the connection URL apply
  // when the per-call options leave them unset, so a deployment can turn
  // on durability without touching call sites.
  const graph::Graph g = graph::MakeWebGraph(80, 3, 5);
  const std::string query = workloads::PageRankQuery(4);
  std::vector<std::string> clean;
  {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url(), BaseOptions(ExecutionMode::kSync, 1));
    clean = Canonical(loop.Execute(query));
  }

  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  ScopedCheckpointDir dir;
  const std::string ckpt_params =
      "&checkpoint_every=1&checkpoint_dir=" + dir.path();
  {
    SqLoop loop(fixture.Url() + ckpt_params + "&fault_kill_at_round=3",
                BaseOptions(ExecutionMode::kSync, 1));
    EXPECT_THROW(loop.Execute(query), JobKilledError);
    EXPECT_EQ(loop.last_run().checkpoints_written, 2u);
  }
  SqloopOptions options = BaseOptions(ExecutionMode::kSync, 1);
  options.resume = true;
  SqLoop loop(fixture.Url() + ckpt_params, options);
  EXPECT_EQ(Canonical(loop.Execute(query)), clean);
  EXPECT_EQ(loop.last_run().resumed_from_round, 2);
}

TEST(RecoveryTest, ResumeComposesWithFaultInjectionAndRetries) {
  // Checkpointing, the retry ladder, and the plan cache all run in the same
  // job: drops and transient errors force retries before AND after the
  // kill, and the resumed run — against the very same faulted URL, whose
  // shared injector has latched the kill — still converges bit-identically.
  const graph::Graph g = graph::MakeWebGraph(120, 3, 7);
  const std::string query = workloads::PageRankQuery(6);
  std::vector<std::string> clean;
  {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url(), BaseOptions(ExecutionMode::kSync, 1));
    clean = Canonical(loop.Execute(query));
  }

  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  ScopedCheckpointDir dir;
  const std::string faulted_url =
      fixture.Url() +
      "&fault_seed=42&fault_drop_rate=0.1&fault_transient_rate=0.1"
      "&fault_kill_at_round=3";
  SqloopOptions options = BaseOptions(ExecutionMode::kSync, 1);
  options.checkpoint_every = 1;
  options.checkpoint_dir = dir.path();
  options.retry.max_attempts = 10;
  options.retry.backoff_base_ms = 0;
  {
    SqLoop loop(faulted_url, options);
    EXPECT_THROW(loop.Execute(query), JobKilledError);
    EXPECT_GT(loop.last_run().checkpoints_written, 0u);
  }
  options.resume = true;
  SqLoop loop(faulted_url, options);
  EXPECT_EQ(Canonical(loop.Execute(query)), clean);
  EXPECT_GT(loop.last_run().resumed_from_round, 0);
  EXPECT_GT(loop.last_run().retries, 0u);
}

/// Rewrites a sealed manifest into the pre-outbox layout (version 1, one
/// entry per message table, a consumed index per partition), resealed
/// with a valid CRC so only the layout itself can reject it.
void RewriteAsLegacyManifest(const fs::path& manifest, size_t partitions) {
  std::ifstream in(manifest);
  std::string line;
  std::string body;
  while (std::getline(in, line)) {
    if (line.rfind("crc=", 0) == 0 || line.rfind("outbox_files=", 0) == 0 ||
        line.rfind("published=", 0) == 0 ||
        line.rfind("watermarks=", 0) == 0 ||
        line.rfind("addressed=", 0) == 0) {
      continue;
    }
    if (line.rfind("sqloop_checkpoint=", 0) == 0) line = "sqloop_checkpoint=1";
    body += line + "\n";
    if (line.rfind("partition_files=", 0) == 0) {
      body += "message_count=0\n";
      std::string consumed;
      for (size_t k = 0; k < partitions; ++k) {
        consumed += (k > 0 ? ",0" : "0");
      }
      body += "consumed=" + consumed + "\nmessage_seq=0\n";
    }
  }
  in.close();
  body += "crc=" + std::to_string(Crc32(body.data(), body.size())) + "\n";
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << body;
}

/// Rewrites a sealed manifest's dispatch state to all zeros — what an
/// Async checkpoint recorded while Async ran without dispatch books —
/// resealed with a valid CRC.
void ZeroDispatchState(const fs::path& manifest) {
  std::ifstream in(manifest);
  std::string line;
  std::string body;
  while (std::getline(in, line)) {
    if (line.rfind("crc=", 0) == 0) continue;
    if (line.rfind("dispatch_seq=", 0) == 0) line = "dispatch_seq=0";
    if (line.rfind("last_dispatch=", 0) == 0) {
      const auto commas = std::count(line.begin(), line.end(), ',');
      line = "last_dispatch=0";
      for (auto i = commas; i > 0; --i) line += ",0";
    }
    body += line + "\n";
  }
  in.close();
  body += "crc=" + std::to_string(Crc32(body.data(), body.size())) + "\n";
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << body;
}

TEST(RecoveryTest, UnrankedCheckpointWithZeroDispatchStateResumesBitIdentical) {
  // Unranked, every window dispatches the partitions in order, whatever
  // the restored tie-breaking state: a checkpoint whose dispatch state is
  // all zeros resumes exactly like one that recorded the real order.
  const graph::Graph g = graph::MakeWebGraph(120, 3, 7);
  const std::string query = workloads::PageRankQuery(6);
  for (const ExecutionMode mode :
       {ExecutionMode::kAsync, ExecutionMode::kAsyncPriority}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    const auto r = KillThenResume(
        g, query, mode, /*threads=*/1, /*kill_round=*/3, /*cadence=*/1,
        [](const std::string& root) {
          for (const auto& dir : CheckpointsNewestFirst(root)) {
            ZeroDispatchState(dir / "manifest");
          }
        });
    EXPECT_EQ(r.resume_stats.resumed_from_round, 2);
    EXPECT_EQ(r.clean, r.resumed);
  }
}

TEST(RecoveryTest, LegacyLayoutCheckpointFallsBackToFreshRun) {
  // Checkpoints from before the outbox layout record message tables and
  // consumed indexes the runner no longer has. Resuming from them would
  // restore wrongly, so they must be rejected — the run starts fresh and
  // still lands on the clean result.
  const graph::Graph g = graph::MakeWebGraph(120, 3, 7);
  const std::string query = workloads::PageRankQuery(6);
  RecoveryOutcome out = KillThenResume(
      g, query, ExecutionMode::kSync, 2, /*kill_round=*/4, /*cadence=*/1,
      [](const std::string& root) {
        const auto dirs = CheckpointsNewestFirst(root);
        ASSERT_FALSE(dirs.empty());
        for (const auto& dir : dirs) {
          RewriteAsLegacyManifest(dir / "manifest", 8);
        }
      });
  EXPECT_GT(out.kill_stats.checkpoints_written, 0u);
  EXPECT_EQ(out.resume_stats.resumed_from_round, 0);
  EXPECT_EQ(out.resumed, out.clean);
}

/// Collects every Gather/Compute span, per partition, so a test can check
/// that no two tasks of one partition ever ran at the same time.
class PartitionSpanProbe : public ExecutionObserver {
 public:
  void OnTaskComplete(const telemetry::TaskSpan& span) override {
    if (span.kind != telemetry::SpanKind::kGather &&
        span.kind != telemetry::SpanKind::kCompute) {
      return;
    }
    const std::scoped_lock lock(mutex_);
    spans_[span.partition].push_back(
        {span.start_seconds, span.start_seconds + span.duration_seconds});
  }

  /// Partitions with two overlapping spans (a clock tick of slack).
  std::vector<int64_t> Overlapping() {
    const std::scoped_lock lock(mutex_);
    std::vector<int64_t> overlapping;
    for (auto& [partition, spans] : spans_) {
      std::sort(spans.begin(), spans.end());
      for (size_t i = 1; i < spans.size(); ++i) {
        if (spans[i].first + 1e-9 < spans[i - 1].second) {
          overlapping.push_back(partition);
          break;
        }
      }
    }
    return overlapping;
  }

 private:
  std::mutex mutex_;
  std::map<int64_t, std::vector<std::pair<double, double>>> spans_;
};

TEST(RecoveryTest, TasksStrandedOnRetiredWorkersRebalanceToSurvivors) {
  // Connection opens fail for the first four attempts (server-side
  // injector, installed after the master connected): one or two of the
  // three workers exhaust their open budget and retire, and the tasks
  // their threads keep pulling must bounce to the surviving workers —
  // visible as partitions_rebalanced — instead of all falling back to the
  // master. A bounced task keeps its partition busy until it has run, so
  // the asynchronous dispatcher never starts a second task of that
  // partition alongside it.
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  const std::string query = workloads::SsspAllQuery(1);
  std::vector<std::string> clean;
  {
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqLoop loop(fixture.Url(), BaseOptions(ExecutionMode::kSync, 3));
    clean = Canonical(loop.Execute(query));
  }

  for (const ExecutionMode mode :
       {ExecutionMode::kSync, ExecutionMode::kAsync,
        ExecutionMode::kAsyncPriority}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    CoreFixtureBase fixture("postgres");
    fixture.LoadGraph(g);
    SqloopOptions options = BaseOptions(mode, 3);
    options.retry.max_attempts = 2;
    options.retry.backoff_base_ms = 0;
    if (mode == ExecutionMode::kAsyncPriority) {
      options.priority_query = workloads::SsspPriorityQuery();
    }
    SqLoop loop(fixture.Url(), options);
    PartitionSpanProbe probe;
    loop.set_observer(&probe);

    minidb::Server* server =
        dbc::DriverManager::FindHost(HostOf(fixture.Url()));
    ASSERT_NE(server, nullptr);
    FaultConfig config;
    config.connect_failure_rate = 1.0;
    // The pool's three pre-opens fail transiently (3 faults, re-attempted
    // by the first task); of the 4 remaining, some worker must draw two in
    // a row and retire (3 workers x 1 forgiven failure only covers 3),
    // while retiring all three would need 6 — so survivors always remain.
    config.max_faults = 7;
    server->set_fault_injector(std::make_shared<FaultInjector>(config));

    const auto result = Canonical(loop.Execute(query));
    server->set_fault_injector(nullptr);
    loop.set_observer(nullptr);

    EXPECT_EQ(result, clean);
    const RunStats& stats = loop.last_run();
    EXPECT_GE(stats.workers_retired, 1u);
    EXPECT_LE(stats.workers_retired, 2u);  // never all three
    EXPECT_GE(stats.partitions_rebalanced, 1u);
    EXPECT_EQ(probe.Overlapping(), std::vector<int64_t>{});
  }
}

TEST(RecoveryTest, ContradictoryFaultKnobsAreRejected) {
  const auto parse = [](const std::string& params) {
    return dbc::ConnectionConfig::Parse("minidb://h/db?" + params);
  };
  // An explicitly zeroed slow trigger next to a slow delay can never fire.
  EXPECT_THROW(parse("fault_slow_us=500&fault_slow_rate=0"),
               ConnectionError);
  EXPECT_THROW(parse("fault_slow_us=500&fault_slow_every=0"),
               ConnectionError);
  // fault_max=0 disables every configured statement fault.
  EXPECT_THROW(parse("fault_max=0&fault_drop_rate=0.5"), ConnectionError);
  EXPECT_THROW(parse("fault_kill_at_round=-1"), ConnectionError);

  // Legal shapes stay legal: a bare delay (trigger attached later, e.g. by
  // the shell), a kill with no statement faults, and fault_max=0 with only
  // a kill (the kill is not a statement fault and ignores the budget).
  EXPECT_NO_THROW(parse("fault_slow_us=500"));
  EXPECT_NO_THROW(parse("fault_kill_at_round=3"));
  EXPECT_NO_THROW(parse("fault_max=0&fault_kill_at_round=3"));
  EXPECT_EQ(parse("fault_kill_at_round=3").fault.kill_at_round, 3);
}

TEST(RecoveryTest, CompletedJobLeavesNoPendingMessageDumps) {
  // At commit time every message table of a finished round is either
  // dumped or already dropped; after the job completes, the surviving
  // checkpoints must restore without referencing tables of a later round.
  const graph::Graph g = graph::MakeEgoNetGraph(6, 12, 0.25, 5);
  const std::string query = workloads::SsspAllQuery(1);
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  ScopedCheckpointDir dir;
  SqloopOptions options = BaseOptions(ExecutionMode::kAsync, 2);
  options.checkpoint_every = 1;
  options.checkpoint_dir = dir.path();
  SqLoop loop(fixture.Url(), options);
  const auto first = Canonical(loop.Execute(query));
  EXPECT_GT(loop.last_run().checkpoints_written, 0u);

  // Resuming a job that already converged replays only its final round.
  options.resume = true;
  SqLoop again(fixture.Url(), options);
  EXPECT_EQ(Canonical(again.Execute(query)), first);
  EXPECT_GT(again.last_run().resumed_from_round, 0);
}

}  // namespace
}  // namespace sqloop::core
