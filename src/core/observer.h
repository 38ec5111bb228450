// The observer half of the execution API: callers register an
// ExecutionObserver on a SqLoop instance and receive round-boundary and
// task-completion callbacks during iterative/recursive executions, instead
// of polling the database or diffing RunStats after the fact.
#pragma once

#include <string>

#include "common/cancel.h"
#include "common/memory_tracker.h"
#include "core/options.h"
#include "telemetry/recorder.h"

namespace sqloop {
class ThreadPool;
}

namespace sqloop::core {

/// A transient failure about to be retried (see DESIGN.md "Failure model
/// & resilience").
struct RetryEvent {
  std::string what;      // which operation failed, e.g. "compute"
  int64_t partition;     // affected partition, -1 for master-side work
  int attempt;           // the attempt that just failed (1-based)
  int64_t backoff_ms;    // sleep before the next attempt
  std::string error;     // the transient error's message
};

/// The runner shed capacity instead of aborting.
struct DegradeEvent {
  enum class Kind {
    kWorkerRetired,         // a worker exhausted its retry budget
    kMasterTookOver,        // master re-executed tasks workers abandoned
  };
  Kind kind;
  size_t remaining_workers;  // live workers after the event
  std::string reason;
};

/// Callbacks fired while an iterative or emulated-recursive CTE executes.
/// OnRoundStart/OnRoundEnd/OnFallback arrive on the thread driving the run:
/// the caller of SqLoop::Execute, or a JobServer dispatcher thread when the
/// query runs as a service job. OnTaskComplete, OnRetry and OnDegrade arrive
/// on worker threads, possibly concurrently — implementations must be
/// thread-safe. OnTaskComplete fires once per task span, whether or not a
/// Recorder is attached (see DESIGN.md "Observability").
/// Callbacks must not re-enter the SqLoop instance that is executing.
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;

  /// A new round is about to run (1-based).
  virtual void OnRoundStart(int64_t round) { (void)round; }

  /// A round finished; `round` carries its per-round statistics.
  virtual void OnRoundEnd(const telemetry::IterationStats& round) {
    (void)round;
  }

  /// One Compute/Gather/priority task (or a master-side setup/final span)
  /// completed.
  virtual void OnTaskComplete(const telemetry::TaskSpan& span) { (void)span; }

  /// The parallel engine declined the query and fell back to the
  /// single-threaded loop.
  virtual void OnFallback(const std::string& reason) { (void)reason; }

  /// A transient failure was absorbed and the operation will be retried.
  virtual void OnRetry(const RetryEvent& event) { (void)event; }

  /// The run degraded (worker retired / master took over) instead of
  /// aborting.
  virtual void OnDegrade(const DegradeEvent& event) { (void)event; }
};

/// Hook a scheduler installs to interleave many jobs' rounds over one
/// shared worker pool. The runner calls BeginRound before dispatching a
/// round's tasks and EndRound after the round (including its barrier)
/// finishes, so the scheduler can make jobs yield the pool between rounds.
/// BeginRound may block (waiting for a fair-share grant) and may throw —
/// JobCancelledError is the cooperative cancellation point. EndRound must
/// not throw: it runs on the unwind path too.
class RoundGate {
 public:
  virtual ~RoundGate() = default;
  virtual void BeginRound(int64_t round) = 0;
  virtual void EndRound(int64_t round) noexcept = 0;
};

/// Everything an execution strategy needs besides the query itself: the
/// per-call options, the stats sink, and the optional telemetry recorder /
/// observer. Bundled so runner signatures survive future additions.
/// `gate` and `shared_pool` are set only by the job server: the gate makes
/// the round loop yieldable, and the shared pool replaces the runner's
/// private ThreadPool so concurrent jobs multiplex one worker set.
/// `cancel` and `memory` are the governance hooks: the token preempts the
/// run pre-statement and mid-statement, and the tracker scopes every
/// connection's transient-memory charges to the job's budget.
struct ExecutionContext {
  const SqloopOptions& options;
  RunStats& stats;
  telemetry::Recorder* recorder = nullptr;
  ExecutionObserver* observer = nullptr;
  RoundGate* gate = nullptr;
  ThreadPool* shared_pool = nullptr;
  const CancelToken* cancel = nullptr;
  MemoryTracker* memory = nullptr;
};

}  // namespace sqloop::core
