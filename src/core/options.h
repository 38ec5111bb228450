// User-facing knobs and run statistics for the SQLoop middleware.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/recorder.h"

namespace sqloop::core {

/// Parallel execution policy (paper §V-E).
enum class ExecutionMode {
  kSingleThread,    // the §IV-B baseline loop, no partitioning
  kSync,            // two-phase Compute/Gather with a barrier per phase
  kAsync,           // Gather-then-Compute per partition, no barrier
  kAsyncPriority,   // Async with a user-priority scheduling order
};

const char* ExecutionModeName(ExecutionMode mode) noexcept;

/// How the runner reacts to transient faults (connection drops, injected
/// transient errors, statement timeouts). Fatal errors — parse/analysis/
/// execution/config — always abort immediately regardless of this policy.
struct RetryPolicy {
  /// Attempts per statement or task piece, including the first. At the
  /// paper-scale fault rates the resilience suite injects (up to 20% per
  /// statement), 5 attempts push the per-statement exhaustion probability
  /// below ~3e-4. 1 disables retries.
  int max_attempts = 5;

  /// Exponential backoff before attempt k sleeps
  /// min(backoff_max_ms, backoff_base_ms * multiplier^(k-1)), scaled by a
  /// deterministic jitter in [0.5, 1.0] drawn from jitter_seed.
  int64_t backoff_base_ms = 1;
  double backoff_multiplier = 2.0;
  int64_t backoff_max_ms = 100;
  uint64_t jitter_seed = 42;

  /// Per-statement deadline forwarded to every connection the run opens;
  /// 0 disables. A blown deadline surfaces as a (retryable) TimeoutError.
  int64_t statement_timeout_ms = 0;

  /// When a worker exhausts its retry budget: true = degrade gracefully
  /// (retire the worker, re-execute its tasks on the master, ultimately
  /// single-thread the round); false = abort the run with RetryExhausted.
  bool allow_degradation = true;
};

struct SqloopOptions {
  ExecutionMode mode = ExecutionMode::kSync;

  /// Worker threads (each opens its own connection). 0 = the paper's
  /// default of half the available CPUs (§V-B).
  int threads = 0;

  /// Number of hash partitions of the CTE table. The paper defaults to
  /// 256 "to take advantage of the asynchronous techniques".
  int partitions = 256;

  /// AsyncP only: per-partition priority query. `$PARTITION` is replaced
  /// by the partition table name; the query must return one scalar. NULL
  /// means "this partition has no useful work right now".
  std::string priority_query;

  /// AsyncP only: true = larger priority value runs first (PageRank's
  /// sum-of-delta); false = smaller runs first (SSSP's min-distance).
  bool priority_descending = true;

  /// Materialize the constant part of the iterative join per partition
  /// (Rmjoin, paper §V-B). Disable only to measure its effect — the
  /// ablation benchmark does.
  bool materialize_constant_join = true;

  /// Safety net for UNTIL conditions that never trigger.
  int64_t max_iterations_guard = 1000000;

  /// Keep the result view/partitions after the query (benches sample them).
  bool keep_result_tables = false;

  // --- resource governance ----------------------------------------------

  /// Memory budget for this run's transient working sets (materialized
  /// rows, join builds, GROUP BY state, sort buffers) across every
  /// connection the run opens; 0 = unlimited. Also settable per-URL
  /// (`memory_limit_bytes=N`) — a nonzero value here wins. A breach fails
  /// the run with QuotaExceededError at a clean statement boundary;
  /// table storage itself is accounted but never capped by this knob.
  int64_t memory_limit_bytes = 0;

  /// Rows between the engine's mid-statement governor checks (cancel
  /// token, statement deadline, charge flush); 0 = engine default (1024).
  /// Also settable per-URL (`cancel_check_rows=N`) — a nonzero value here
  /// wins.
  int64_t cancel_check_rows = 0;

  /// Resilience policy applied by all execution modes.
  RetryPolicy retry;

  // --- checkpointing & recovery (DESIGN.md "Checkpointing & recovery") --

  /// Write a checkpoint every N completed rounds; 0 disables. Also
  /// settable per-URL (`checkpoint_every=N`) — a nonzero value here wins.
  int64_t checkpoint_every = 0;

  /// Directory checkpoints live under (one subdirectory per job). Empty
  /// means "sqloop_ckpt" in the working directory. URL knob:
  /// `checkpoint_dir=<path>`.
  std::string checkpoint_dir;

  /// Resume from the newest valid checkpoint of this job, if one exists;
  /// otherwise start fresh. A resumed run is bit-identical to an
  /// uninterrupted one.
  bool resume = false;

  /// How many of the newest sealed checkpoints survive pruning; 0 = the
  /// default of 2 (newest + one fallback). URL knob: `checkpoint_keep=N`
  /// (N >= 1). Deeper retention widens the corruption window recovery can
  /// fall back across, at proportional disk cost.
  int64_t checkpoint_keep = 0;

  /// Re-read and fully re-validate every checkpoint from disk right after
  /// it is sealed (manifest CRC, every dump CRC, content hash) — the same
  /// validation recovery would run. URL knob: `verify_checkpoints=1`.
  bool verify_checkpoints = false;

  // --- integrity scrubbing (DESIGN.md "Durability & integrity") ---------

  /// Run a CHECK TABLE scrub pass over the CTE state table(s) every N
  /// completed rounds; 0 disables. The scrub compares each table's
  /// incrementally-maintained content checksum against a recomputation
  /// over the live rows; a mismatch raises IntegrityError. URL knob:
  /// `scrub_every=N`.
  int64_t scrub_every = 0;

  /// When a scrub (or any integrity check) fails mid-job, restart from the
  /// newest valid checkpoint instead of surfacing the error (the repair
  /// ladder; bounded attempts). false = fail loudly on first corruption.
  bool scrub_repair = true;

  /// Worker threads actually opened: the explicit `threads` (or the paper's
  /// half-the-CPUs default), clamped to the partition count — with fewer
  /// partitions than threads the extra workers could never be scheduled and
  /// would only open idle connections.
  int ResolveThreads() const {
    int resolved = threads;
    if (resolved <= 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      resolved = hw >= 2 ? static_cast<int>(hw / 2) : 1;
    }
    return std::max(1, std::min(resolved, std::max(partitions, 1)));
  }
};

/// What actually happened during the last Execute() — used by tests,
/// benches, and the EXPERIMENTS.md tables.
///
/// The flat totals below are aggregated over the whole run; the per-round
/// breakdown lives in the telemetry recorder the run wrote to, and
/// `per_iteration()` exposes it (one entry per executed round). RunStats is
/// a cheap value type: copying it shares the (immutable-after-run)
/// recorder.
struct RunStats {
  ExecutionMode mode_used = ExecutionMode::kSingleThread;
  bool parallelized = false;
  std::string fallback_reason;  // why the parallel path was not taken
  int64_t iterations = 0;       // rounds executed
  uint64_t total_updates = 0;   // changed rows across all statements
  uint64_t compute_tasks = 0;
  uint64_t gather_tasks = 0;
  uint64_t message_tables = 0;  // non-empty message batches published
  uint64_t skipped_tasks = 0;   // AsyncP partitions skipped as unproductive
  double seconds = 0;

  // --- resilience (mirrored into the recorder as resilience.* counters,
  // kept flat here so tests work with telemetry compiled out) ------------
  uint64_t retries = 0;               // transient failures retried
  uint64_t reopened_connections = 0;  // dropped connections re-armed
  uint64_t timeouts = 0;              // statements that blew their deadline
  uint64_t degraded_rounds = 0;       // rounds that needed master takeover
  uint64_t workers_retired = 0;       // workers that exhausted their budget
  uint64_t partitions_rebalanced = 0; // retired workers' tasks rerouted to
                                      // surviving workers (not the master)

  // --- checkpointing & recovery -----------------------------------------
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_dumps_reused = 0;  // unchanged tables whose previous
                                         // sealed dump was republished
                                         // instead of re-serialized
  int64_t resumed_from_round = 0;     // 0 = fresh run; N = resumed after N

  // --- durability & integrity -------------------------------------------
  uint64_t checkpoints_verified = 0;  // post-commit read-back validations
  uint64_t scrub_passes = 0;          // CHECK TABLE sweeps the runner issued
  uint64_t integrity_repairs = 0;     // corruption caught and repaired by
                                      // restarting from a valid checkpoint

  /// Telemetry of the run: per-round stats, task spans, and the counters
  /// attributed by dbc/minidb. Null until an iterative/recursive execution
  /// has run.
  std::shared_ptr<telemetry::Recorder> recorder;

  /// One entry per executed round, in order. Empty when no recorder was
  /// attached. Each field sums across rounds to the matching flat total.
  std::vector<telemetry::IterationStats> per_iteration() const {
    return recorder ? recorder->IterationsSnapshot()
                    : std::vector<telemetry::IterationStats>{};
  }
};

}  // namespace sqloop::core
