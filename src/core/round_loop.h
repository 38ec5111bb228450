// The round loop both iterative runners share (paper §III, §IV-B: seed R0,
// iterate Ri until Tc). The single-thread and partitioned runners differ
// only in how one round's work is scheduled (§V-E); everything around that
// work lives here once (DESIGN.md "Execution-model notes", the round loop):
// the run's master scope, the job's checkpoint identity and resume probe,
// the round border, and the span helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/function_ref.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/observer.h"
#include "core/options.h"
#include "core/resilience.h"
#include "core/termination.h"
#include "core/translator.h"
#include "dbc/connection.h"
#include "dbc/prepared_statement.h"
#include "sql/ast.h"

namespace sqloop::core {

/// The run's master scope. For its lifetime the master connection carries
/// the policy's statement timeout and the run's governance hooks (cancel
/// token, job memory budget, governor interval). Every master statement is
/// one retry unit of the scope's Retrier, which the parallel runner shares
/// with its workers: faults are injected before the engine applies a
/// statement (DESIGN.md "Failure model & resilience"), so a retry never
/// double-applies work, and a failed batch stays queued for resubmission.
/// On every exit path the scope drops a batch a failure left queued,
/// restores the connection, and adds the Retrier's counters to RunStats.
class ResilientConn {
 public:
  ResilientConn(dbc::Connection& conn, const ExecutionContext& ctx);
  ~ResilientConn();
  ResilientConn(const ResilientConn&) = delete;
  ResilientConn& operator=(const ResilientConn&) = delete;

  dbc::Connection& conn() noexcept { return conn_; }
  Retrier& retrier() noexcept { return retrier_; }

  void Execute(const std::string& sql) {
    Run("master", [&] { conn_.Execute(sql); return 0; });
  }
  size_t ExecuteUpdate(const std::string& sql) {
    return Run("master", [&] { return conn_.ExecuteUpdate(sql); });
  }
  dbc::ResultSet ExecuteQuery(const std::string& sql) {
    return Run("query", [&] { return conn_.ExecuteQuery(sql); });
  }
  void AddBatch(std::string sql) { conn_.AddBatch(std::move(sql)); }
  void ExecuteBatch() {
    Run("master-batch", [&] { conn_.ExecuteBatch(); return 0; });
  }
  // A handle's compiled state lives with the database, so it survives the
  // Reopen a retry performs.
  dbc::PreparedStatement Prepare(const std::string& sql) {
    return Run("prepare", [&] { return conn_.Prepare(sql); });
  }
  void Execute(dbc::PreparedStatement& stmt) {
    Run("master", [&] { stmt.Execute(); return 0; });
  }
  size_t ExecuteUpdate(dbc::PreparedStatement& stmt) {
    return Run("master", [&] { return stmt.ExecuteUpdate(); });
  }

  /// Teardown: `fn` runs on the master (reopened if a fault dropped it)
  /// with the cancel token detached — the dbc layer rejects every
  /// statement while a cancelled token is armed — and no stale batch.
  /// Best-effort: the run's own error, if any, matters more.
  void BestEffort(FunctionRef<void(dbc::Connection&)> fn) noexcept;

 private:
  template <typename Fn>
  std::invoke_result_t<Fn&> Run(const char* what, Fn&& fn) {
    return retrier_.Run(conn_, what, -1, std::forward<Fn>(fn));
  }

  dbc::Connection& conn_;
  Retrier retrier_;
  RunStats& stats_;
  int64_t saved_timeout_ms_;
  const CancelToken* saved_token_;
  MemoryTracker* saved_tracker_;
  int64_t saved_check_rows_;
};

/// One round's slot in the cross-job scheduler (service runs); see
/// RoundGate. BeginRound may block or throw JobCancelledError — the
/// cooperative cancellation point — before any of the round's work;
/// EndRound fires on the unwind path too, so a job that dies mid-round
/// still gives its grant back. A null gate costs nothing.
struct RoundLease {
  RoundGate* gate;
  int64_t round;
  RoundLease(RoundGate* g, int64_t r) : gate(g), round(r) {
    if (gate != nullptr) gate->BeginRound(round);
  }
  ~RoundLease() {
    if (gate != nullptr) gate->EndRound(round);
  }
  RoundLease(const RoundLease&) = delete;
  RoundLease& operator=(const RoundLease&) = delete;
};

/// Records one attributed unit of work as a TaskSpan. A no-op without a
/// recorder and observer.
void EmitSpan(telemetry::Recorder* recorder, ExecutionObserver* observer,
              telemetry::SpanKind kind, int64_t round, int64_t partition,
              double start, double duration, uint64_t updates = 0);

/// Records one round of a single-connection loop: the whole body counts
/// as one Compute-side task plus a kMerge span, so traces stay uniform
/// across modes; then fires OnRoundEnd.
void RecordRound(const ExecutionContext& ctx, const Stopwatch& watch,
                 int64_t round, uint64_t updates, double body_start);

/// The runaway-loop guard: throws ExecutionError once `round` rounds of
/// `cte` ran without it finishing (SqloopOptions::max_iterations_guard).
void EnforceIterationGuard(const SqloopOptions& options,
                           const std::string& cte, int64_t round);

/// A job's checkpoint identity: the rendered query plus mode and
/// partition count (0 for the single-thread runner). A resumed run replays
/// the same statements over the same layout, so only state of the very
/// same job makes a restore meaningful.
class JobCheckpoints {
 public:
  JobCheckpoints(const SqloopOptions& options, const Translator& translator,
                 const std::string& cte, const sql::WithClause& with,
                 ExecutionMode mode, size_t partitions);

  /// Under `resume`, the newest valid checkpoint of this job; nullopt
  /// means a fresh run.
  const std::optional<CheckpointManifest>& resume_from() const noexcept {
    return resume_from_;
  }
  /// Null when checkpointing is off.
  CheckpointManager* writer() const noexcept { return writer_.get(); }
  ExecutionMode mode() const noexcept { return mode_; }
  size_t partitions() const noexcept { return partitions_; }

 private:
  ExecutionMode mode_;
  size_t partitions_;
  std::optional<CheckpointManifest> resume_from_;
  std::unique_ptr<CheckpointManager> writer_;
};

/// One table of a runner's state: dumped as `stem` by every checkpoint,
/// checked by every scrub pass when `scrub` is set.
struct StateTable {
  std::string table;
  std::string stem;
  bool scrub = true;
};

/// What one round's step reports back to the loop.
struct RoundResult {
  uint64_t updates = 0;
  /// Nothing can make progress any more (AsyncP's starved window): the
  /// loop checks Tc once and stops either way.
  bool quiesced = false;
};

/// The round border, driven from the master thread. Each round, in order:
/// the lease; OnRoundStart; the `fault_kill_at_round` point; the delta
/// snapshot; the runner's step; stats.iterations / total_updates; Tc,
/// retried; at the scrub cadence, CHECK TABLE over the scrubbed state
/// tables — before the checkpoint, so corrupt state is never sealed into
/// one it would later be "repaired" from; at the checkpoint cadence, one
/// checkpoint of every state table; the iteration guard.
struct RoundLoop {
  const ExecutionContext& ctx;
  ResilientConn& master;
  const Translator& translator;
  const Stopwatch& watch;  // span offsets
  const TerminationChecker& checker;
  const std::vector<sql::ColumnDef>& schema;  // for the delta snapshot
  const std::string& cte;                     // named by the guard
  const JobCheckpoints& checkpoints;
  std::vector<StateTable> state;

  /// Runs rounds from `first_round` until Tc holds or a step reports
  /// quiescence. `step(round, round_start)` does and records one round's
  /// work. `manifest_extras` fills in what a checkpoint records besides
  /// the round, mode and partition count: the dump file names and the
  /// runner's scheduler state.
  void Run(int64_t first_round,
           FunctionRef<RoundResult(int64_t, double)> step,
           FunctionRef<void(CheckpointManifest&)> manifest_extras) const;

 private:
  void Scrub() const;
  void WriteCheckpoint(
      int64_t round,
      FunctionRef<void(CheckpointManifest&)> manifest_extras) const;
};

}  // namespace sqloop::core
