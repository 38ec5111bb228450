// The parallel execution engine (paper §V): hash-partitions the CTE table,
// re-defines R as a view over the partition union, materializes the
// constant part of the join (Rmjoin), and drives per-partition
// Compute/Gather tasks over a pool of worker connections under the Sync,
// Async, or Prioritized-Async scheduling policies.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.h"
#include "core/analysis.h"
#include "core/checkpoint.h"
#include "core/observer.h"
#include "core/options.h"
#include "core/resilience.h"
#include "core/termination.h"
#include "core/translator.h"
#include "dbc/connection.h"
#include "dbc/prepared_statement.h"

namespace sqloop::core {

class ParallelRunner {
 public:
  /// `master` drives DDL, termination checks, and the final query; worker
  /// connections are opened against `url` (one per thread, §V-B). `schema`
  /// is the inferred CTE schema (key first, already widened). `ctx` bundles
  /// the per-call options with the stats/telemetry sinks; all referenced
  /// objects must outlive the runner.
  ParallelRunner(std::string url, dbc::Connection& master,
                 const sql::WithClause& with, const CteAnalysis& analysis,
                 std::vector<sql::ColumnDef> schema,
                 const ExecutionContext& ctx);

  dbc::ResultSet Run();

 private:
  /// Cross-attempt progress of one Compute task, so a retry never repeats
  /// a completed piece: once the message phase is done it is skipped (a
  /// second publish would double-count SUM deltas), and every attempt of
  /// the phase stamps the same outbox seq, so a retry first deletes
  /// whatever rows an earlier attempt left under it (DESIGN.md "Failure
  /// model & resilience").
  struct ComputeAttempt {
    bool messages_done = false;
    uint64_t seq = 0;  // 0 = no attempt has stamped rows yet
  };

  /// One unit of schedulable work plus its progress. A spec survives its
  /// worker: when a worker exhausts its retry budget the spec — with the
  /// completed pieces already cleared — moves to `abandoned_` and the
  /// master re-executes only what is left.
  struct TaskSpec {
    size_t partition = 0;
    bool do_gather = false;
    bool do_compute = false;
    /// AsyncP: re-measure the priority once the pair is done, if it moved
    /// data; an unproductive pair clears it instead.
    bool refresh_priority = false;
    uint64_t updates = 0;  // accumulated across pieces (feeds the refresh)
    int bounces = 0;       // rebalance hops off retired workers (bounded)
    ComputeAttempt compute;
  };

  // --- setup / teardown -------------------------------------------------
  void DropLeftovers();
  void CreatePartitions();
  /// The fixed per-source message outboxes `<R>_msg<k>` (paper §V-C's
  /// separate message tables, created once instead of per Compute). A
  /// restored run already has their rows and only needs the index.
  void CreateOutboxes(bool restored);
  void CreateUnionView();
  void MaterializeConstantJoins();  // Rmjoin (§V-B)
  void BuildTaskSql();
  void Cleanup();

  // --- checkpointing / recovery (DESIGN.md "Checkpointing & recovery") ---
  /// Derives the job id and, under `resume`, probes for the newest valid
  /// checkpoint of this exact job (same query, mode, partition count).
  void SetupCheckpointing();
  /// Re-creates the partition tables and outboxes from the resume
  /// checkpoint and reloads the registry / priority / scheduler state.
  /// Returns false (fresh start) when there is nothing to resume.
  bool RestoreFromCheckpoint();
  /// Dumps every partition table and outbox and seals the round's
  /// manifest. Runs at a round border (pool idle), so the captured state
  /// is exactly what the next round starts from.
  void WriteCheckpoint(int64_t round, uint64_t dispatch_seq,
                       const std::vector<uint64_t>& last_dispatch);
  /// CHECK TABLE over every partition table (batched on the master), at
  /// the scrub cadence point just before the checkpoint write. A content
  /// checksum mismatch surfaces as IntegrityError.
  void ScrubPartitions();

  // --- resilience (DESIGN.md "Failure model & resilience") ---------------
  /// master_.Execute / master_.ExecuteBatch under the retry policy.
  void MasterExecute(const std::string& sql);
  void MasterExecuteBatch();
  /// Runs the spec's remaining pieces on `conn`, each piece under the
  /// retry policy, clearing piece flags as they complete. Worker threads
  /// and the master (DrainAbandoned) both use it.
  void RunSpec(dbc::Connection& conn, TaskSpec& spec);
  void AbandonTask(TaskSpec spec);
  /// Master-side: re-executes every abandoned spec on the master
  /// connection. Called only while the pool is idle (phase/round borders).
  void DrainAbandoned();
  void FlushResilienceStats();

  // --- tasks (§V-C) -----------------------------------------------------
  uint64_t RunCompute(size_t partition, dbc::Connection& conn,
                      ComputeAttempt& attempt);
  uint64_t RunGather(size_t partition, dbc::Connection& conn);
  /// The skip rule (DESIGN.md "Execution-model notes"): a task with no
  /// work is not run, emits no TaskSpan and counts in skipped_tasks. A
  /// Gather is idle when no source addressed an unread batch to its
  /// partition; skipping it consumes the empty window. A Compute is idle
  /// when the CTE allows it (CteAnalysis::skip_clean_computes) and no
  /// Gather changed the partition since its last Compute.
  bool SkipIdleGather(size_t partition);
  bool SkipCleanCompute(size_t partition);
  /// Task wrappers: time the task into the per-round accumulators and emit
  /// a TaskSpan (telemetry-enabled builds only).
  uint64_t TimedCompute(size_t partition, dbc::Connection& conn,
                        ComputeAttempt& attempt);
  uint64_t TimedGather(size_t partition, dbc::Connection& conn);

  // --- telemetry ----------------------------------------------------------
  /// Records one attributed unit of work; no-op without recorder/observer.
  void EmitSpan(telemetry::SpanKind kind, int64_t partition, double start,
                double duration, uint64_t updates);
  /// Closes the round's accounting window: turns the accumulated task
  /// counters into an IterationStats delta, records it, and fires the
  /// observer. Runs on the master thread while the pool is idle.
  void FinishRound(int64_t round, uint64_t updates, double round_start,
                   double barrier_wait);

  // --- message registry (the paper's "global data structure") ------------
  // Every Compute of source s stamps its outbox rows with the next seq of
  // s; Publish makes them visible once the INSERT succeeded. `targets`
  // lists the partitions the batch addresses (empty = all), so Gathers
  // skip sources with nothing for them and AsyncP skips idle partitions
  // without missing messages. A Gather of target t reads, per source, the
  // seq range (watermark, published] and then advances its watermarks.
  void Publish(size_t source, uint64_t seq, const std::vector<size_t>& targets);
  /// Caller holds registry_mutex_.
  bool HasUnreadTargetedMessages(size_t partition) const;
  /// Highest seq of `source` that no target still needs: a target with
  /// nothing addressed to it above its watermark needs none of the rows.
  /// Caller holds registry_mutex_.
  uint64_t ConsumedUpto(size_t source) const;
  /// Deletes (or truncates) outbox rows every target has consumed.
  /// Master-side, at round borders.
  void CollectConsumedMessages();

  // --- scheduling (§V-E) --------------------------------------------------
  void RunRounds();
  void RefreshPriority(size_t partition, dbc::Connection& conn);
  /// True if the partition currently has productive work: a usable
  /// priority, pending messages addressed to it, or no measurement yet.
  /// Fills `rank` with the dispatch priority (already oriented so larger
  /// runs first).
  bool PartitionEligible(size_t partition, double* rank);

  std::string PartitionTable(size_t k) const;
  std::string MjoinTable(size_t k) const;
  std::string OutboxTable(size_t k) const;

  /// Scratch table the outbox compaction copies survivors through.
  std::string CompactionTable() const;
  /// Staging table between a Gather's two statements, keyed by token.
  std::string InboxTable() const;

  /// The fixed statement texts of the round loop, one per partition and
  /// kind: the Compute's produce/retract/target probe/own-column update,
  /// the Gather's two statements, the AsyncP priority probe, and the
  /// master's outbox collection and compaction. Kinds marked "slot 0" have
  /// one text for the whole run.
  enum class TaskSql {
    kProduce,
    kRetract,
    kTargets,
    kUpdate,
    kGatherRead,  // slot 0
    kGatherApply,
    kPriority,
    kCollect,
    kTruncate,
    kCompactOut,
    kCompactIn,
    kTruncateInbox,       // slot 0
    kTruncateCompaction,  // slot 0
    kCount
  };
  std::string& TaskText(TaskSql kind, size_t partition) {
    return task_sql_[static_cast<size_t>(kind) * partitions_ + partition];
  }
  /// `conn`'s prepared handle for one of them, prepared on first use. The
  /// plan cache pins each text, so it is parsed once per database however
  /// many connections prepare it.
  dbc::PreparedStatement& Statement(dbc::Connection& conn, TaskSql kind,
                                    size_t partition);

  const std::string url_;
  dbc::Connection& master_;
  const sql::WithClause& with_;
  const CteAnalysis& analysis_;
  const SqloopOptions& options_;
  RunStats& stats_;
  telemetry::Recorder* const recorder_;  // may be null
  ExecutionObserver* const observer_;    // may be null
  RoundGate* const gate_;                // may be null (non-service runs)
  ThreadPool* const shared_pool_;        // may be null (private pool)
  const Stopwatch run_watch_;            // span times are offsets from this
  Translator translator_;
  std::vector<sql::ColumnDef> schema_;
  std::vector<sql::ColumnDef> message_schema_;
  std::vector<sql::ColumnDef> inbox_schema_;
  TerminationChecker checker_;

  size_t partitions_;
  std::string base_;  // folded CTE name; also the union view's name

  // Pre-rendered round-loop SQL, indexed [kind * P + partition].
  std::vector<std::string> task_sql_;

  // Per-connection prepared handles for task_sql_, dropped when RunRounds
  // closes its worker connections. A connection is driven by one thread
  // at a time, so only the map itself needs the mutex.
  std::mutex statements_mutex_;
  std::unordered_map<const dbc::Connection*,
                     std::vector<std::optional<dbc::PreparedStatement>>>
      statements_;

  // Message registry. P x P matrices are indexed [target * P + source].
  std::mutex registry_mutex_;
  std::vector<uint64_t> published_;  // per source: highest visible seq
  std::vector<uint64_t> watermark_;  // highest seq the target consumed
  std::vector<uint64_t> addressed_;  // highest published seq addressing it
  // Per partition: a Gather changed a row since its last Compute finished
  // (or the run just seeded or restored it). Only the partition's own
  // task writes its flag outside round borders.
  std::vector<uint8_t> pending_;
  // Master-only GC state, per source: seqs already removed, and rows
  // DELETE left as tombstones (their payload stays until the table is
  // cleared, so compaction copies the survivors once enough pile up).
  std::vector<uint64_t> collected_;
  std::vector<uint64_t> collected_dead_rows_;
  // Gather staging tokens handed out, and the count at the inbox's last
  // TRUNCATE (master-only).
  std::atomic<uint64_t> inbox_tokens_{1};
  uint64_t inbox_truncated_at_ = 1;

  // AsyncP priorities (NaN optional = unknown; nullopt = "no work").
  std::mutex priority_mutex_;
  std::vector<std::optional<double>> priorities_;
  std::vector<bool> priority_known_;

  // Per-round accounting. The `_ns` accumulators hold summed task wall time
  // in nanoseconds; FinishRound() snapshots running totals into `prev_` to
  // produce per-round deltas.
  std::atomic<uint64_t> round_updates_{0};
  std::atomic<uint64_t> compute_tasks_{0};
  std::atomic<uint64_t> gather_tasks_{0};
  std::atomic<uint64_t> message_count_{0};
  std::atomic<uint64_t> messages_consumed_{0};
  std::atomic<uint64_t> compute_ns_{0};
  std::atomic<uint64_t> gather_ns_{0};
  std::atomic<uint64_t> skipped_tasks_{0};
  std::atomic<int64_t> current_round_{0};  // read by workers for span.round
  uint64_t prev_compute_tasks_ = 0;
  uint64_t prev_gather_tasks_ = 0;
  uint64_t prev_messages_produced_ = 0;
  uint64_t prev_messages_consumed_ = 0;
  uint64_t prev_compute_ns_ = 0;
  uint64_t prev_gather_ns_ = 0;
  uint64_t prev_skipped_ = 0;

  // First task failure, rethrown on the master thread.
  std::mutex failure_mutex_;
  std::exception_ptr failure_;

  // Resilience state. The retrier is shared by the master and all workers;
  // the degradation ladder tracks retired workers and the tasks they
  // abandoned (drained by the master at phase/round borders).
  Retrier retrier_;
  std::mutex degrade_mutex_;
  std::vector<char> worker_dead_;
  size_t live_workers_ = 0;
  std::vector<TaskSpec> abandoned_;
  std::atomic<uint64_t> workers_retired_{0};
  uint64_t degraded_rounds_ = 0;   // master-thread only
  bool round_degraded_ = false;    // master-thread only, reset per round
  // Tasks bounced off a retired worker onto a surviving one (first bounce
  // per task).
  std::atomic<uint64_t> rebalanced_{0};

  // Checkpoint / recovery state (set up in Run before any DDL).
  std::unique_ptr<CheckpointManager> ckpt_;
  std::optional<CheckpointManifest> resume_from_;
  int64_t resume_round_ = 0;  // 0 = fresh run
  uint64_t resume_dispatch_seq_ = 0;
  std::vector<uint64_t> resume_last_dispatch_;
};

}  // namespace sqloop::core
