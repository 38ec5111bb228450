// Telemetry recorder — the per-run observability substrate (ROADMAP
// "observability"; paper Figs. 4-6 attribute time to rounds and phases).
//
// A Recorder collects three kinds of data during one SQLoop execution:
//   * named counters and timers — cheap, thread-safe, attributed by the
//     layer that pays the cost (dbc.round_trips, minidb.rows_examined,
//     minidb.lock_wait_seconds, ...);
//   * one IterationStats entry per executed round — where the paper's
//     per-round Compute/Gather cost, barrier stalls, message backlog and
//     skipped partitions become measurable;
//   * TaskSpan events — one per Compute/Gather task with partition and
//     thread attribution, for trace-level debugging.
//
// Recorders are created per execution by SqLoop and exposed through
// RunStats::per_iteration(); exporters.h renders them as JSON lines, a
// Prometheus-style snapshot, or a human summary table.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sqloop::telemetry {

/// Everything that happened during one round of an iterative execution.
/// Counts are deltas for the round, not running totals, so summing a field
/// across rounds reproduces the matching RunStats flat total.
struct IterationStats {
  int64_t round = 0;
  uint64_t updates = 0;            // changed rows this round
  uint64_t compute_tasks = 0;
  uint64_t gather_tasks = 0;
  double compute_seconds = 0;      // summed Compute task wall time
  double gather_seconds = 0;       // summed Gather task wall time
  double barrier_wait_seconds = 0; // aggregate worker idle at Sync barriers
  uint64_t messages_produced = 0;  // message batches published this round
  uint64_t messages_consumed = 0;  // message batches read by Gathers
  uint64_t skipped_tasks = 0;      // tasks not run for lack of work
  double seconds = 0;              // wall time of the whole round
};

enum class SpanKind {
  kCompute,   // one per-partition Compute task
  kGather,    // one per-partition Gather task
  kPriority,  // AsyncP priority refresh query
  kSetup,     // partitioning / view / Rmjoin setup (master)
  kFinal,     // the final query over the union view (master)
  kMerge,       // single-thread R/Rtmp iteration body
  kCheckpoint,  // writing one checkpoint (dumps + manifest, master)
  kRestore,     // restoring job state from a checkpoint (master)
};

const char* SpanKindName(SpanKind kind) noexcept;
/// Inverse of SpanKindName; returns false when `name` is unknown.
bool ParseSpanKind(std::string_view name, SpanKind* kind) noexcept;

/// One unit of attributed work. Times are offsets in seconds from the start
/// of the execution that produced the span (not absolute timestamps).
struct TaskSpan {
  SpanKind kind = SpanKind::kCompute;
  int64_t round = 0;
  int64_t partition = -1;  // -1 = not partition-scoped (setup, final, ...)
  uint64_t thread_id = 0;  // hashed std::thread::id of the executing worker
  double start_seconds = 0;
  double duration_seconds = 0;
  uint64_t updates = 0;
};

/// Thread-safe telemetry sink for one execution. All mutators may be called
/// concurrently from worker threads; snapshot accessors copy under the lock
/// so they are safe to call from a sampler thread mid-run.
class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // --- counters / timers ------------------------------------------------
  void Add(std::string_view counter, uint64_t delta);
  /// Gauge semantics: overwrites the counter with `value` (last write
  /// wins). Used for point-in-time readings like governance.bytes_reserved.
  void Set(std::string_view counter, uint64_t value);
  /// High-watermark semantics: keeps the larger of the stored value and
  /// `value` (governance.bytes_peak merges per-job peaks this way).
  void SetMax(std::string_view counter, uint64_t value);
  void AddSeconds(std::string_view timer, double seconds);
  uint64_t counter(std::string_view name) const;        // 0 when absent
  double timer_seconds(std::string_view name) const;    // 0 when absent
  std::vector<std::pair<std::string, uint64_t>> Counters() const;  // sorted
  std::vector<std::pair<std::string, double>> Timers() const;      // sorted

  // --- structured events ------------------------------------------------
  void RecordIteration(const IterationStats& round);
  void RecordSpan(const TaskSpan& span);
  std::vector<IterationStats> IterationsSnapshot() const;
  std::vector<TaskSpan> SpansSnapshot() const;
  size_t iteration_count() const;
  size_t span_count() const;

  /// This thread's id folded to an integer, for TaskSpan::thread_id.
  static uint64_t ThisThreadId() noexcept;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> timers_;
  std::vector<IterationStats> iterations_;
  std::vector<TaskSpan> spans_;
};

}  // namespace sqloop::telemetry
