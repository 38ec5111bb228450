#include "core/round_loop.h"

#include "common/error.h"
#include "common/fault.h"
#include "sql/value.h"
#include "telemetry/hooks.h"

namespace sqloop::core {

ResilientConn::ResilientConn(dbc::Connection& conn,
                             const ExecutionContext& ctx)
    : conn_(conn),
      retrier_(ctx.options.retry, ctx.recorder, ctx.observer),
      stats_(ctx.stats),
      saved_timeout_ms_(conn.statement_timeout_ms()),
      saved_token_(conn.cancel_token()),
      saved_tracker_(conn.active_memory_tracker()),
      saved_check_rows_(conn.cancel_check_rows()) {
  conn_.set_statement_timeout_ms(ctx.options.retry.statement_timeout_ms);
  // Every connection the run touches — the lent master, each worker's
  // connection, spares opened for takeover — carries the run's governance
  // hooks through this Retrier.
  retrier_.set_cancel_token(ctx.cancel);
  retrier_.set_memory_tracker(ctx.memory);
  retrier_.set_cancel_check_rows(ctx.options.cancel_check_rows);
  retrier_.ApplyGovernance(conn_);
}

ResilientConn::~ResilientConn() {
  // A batch a failure left queued is never resubmitted once the run is
  // over; the connection goes back to its owner clean.
  conn_.ClearBatch();
  conn_.set_statement_timeout_ms(saved_timeout_ms_);
  conn_.set_cancel_token(saved_token_);
  conn_.set_memory_tracker(saved_tracker_);
  conn_.set_cancel_check_rows(saved_check_rows_);
  // Flushed on every exit path: partial counters still tell the story
  // when the run aborts. += because the repair ladder (execute.cpp) runs
  // one scope per attempt into the same RunStats.
  stats_.retries += retrier_.retries();
  stats_.reopened_connections += retrier_.reopened_connections();
  stats_.timeouts += retrier_.timeouts();
}

void ResilientConn::BestEffort(
    FunctionRef<void(dbc::Connection&)> fn) noexcept {
  const CancelToken* const armed_token = conn_.cancel_token();
  conn_.set_cancel_token(nullptr);
  try {
    // The run may have ended with the master dropped by a fault; teardown
    // needs a live connection or nothing it issues can work.
    if (conn_.closed()) conn_.Reopen();
    conn_.ClearBatch();
    fn(conn_);
  } catch (...) {
    // Best-effort: the run's own error (if any) matters more.
  }
  conn_.set_cancel_token(armed_token);
}

void EmitSpan(telemetry::Recorder* recorder, ExecutionObserver* observer,
              telemetry::SpanKind kind, int64_t round, int64_t partition,
              double start, double duration, uint64_t updates) {
  if (recorder == nullptr && observer == nullptr) return;
  telemetry::TaskSpan span;
  span.kind = kind;
  span.round = round;
  span.partition = partition;
  span.thread_id = telemetry::Recorder::ThisThreadId();
  span.start_seconds = start;
  span.duration_seconds = duration;
  span.updates = updates;
  if (recorder != nullptr) recorder->RecordSpan(span);
  if (observer != nullptr) observer->OnTaskComplete(span);
}

void RecordRound(const ExecutionContext& ctx, const Stopwatch& watch,
                 int64_t round, uint64_t updates, double body_start) {
  telemetry::IterationStats it;
  it.round = round;
  it.updates = updates;
  it.compute_tasks = 1;
  it.seconds = watch.ElapsedSeconds() - body_start;
  it.compute_seconds = it.seconds;
  if (ctx.recorder != nullptr) ctx.recorder->RecordIteration(it);
  EmitSpan(ctx.recorder, ctx.observer, telemetry::SpanKind::kMerge, round,
           -1, body_start, it.seconds, updates);
  if (ctx.observer != nullptr) ctx.observer->OnRoundEnd(it);
}

void EnforceIterationGuard(const SqloopOptions& options,
                           const std::string& cte, int64_t round) {
  if (round < options.max_iterations_guard) return;
  throw ExecutionError("CTE '" + cte + "' did not finish within " +
                       std::to_string(options.max_iterations_guard) +
                       " iterations");
}

JobCheckpoints::JobCheckpoints(const SqloopOptions& options,
                               const Translator& translator,
                               const std::string& cte,
                               const sql::WithClause& with,
                               ExecutionMode mode, size_t partitions)
    : mode_(mode), partitions_(partitions) {
  const bool want = options.checkpoint_every > 0;
  if (!want && !options.resume) return;
  const std::string job_id = CheckpointManager::JobId(
      cte + '|' + translator.Render(*with.seed) + '|' +
      translator.Render(*with.step) + '|' +
      translator.Render(*with.final_query) + '|' + ExecutionModeName(mode) +
      '|' + std::to_string(partitions));
  if (options.resume) {
    resume_from_ =
        RecoveryManager(options.checkpoint_dir, job_id).FindLatestValid();
    // Identity hashing should make a mismatch unreachable; a checkpoint of
    // another layout cannot be resumed, so the run starts fresh.
    if (resume_from_ != std::nullopt &&
        (resume_from_->mode != ExecutionModeName(mode) ||
         resume_from_->partitions != static_cast<int64_t>(partitions))) {
      resume_from_.reset();
    }
  }
  if (want) {
    writer_ = std::make_unique<CheckpointManager>(
        options.checkpoint_dir, job_id, options.checkpoint_keep,
        options.verify_checkpoints);
  }
}

void RoundLoop::Run(
    int64_t first_round, FunctionRef<RoundResult(int64_t, double)> step,
    FunctionRef<void(CheckpointManifest&)> manifest_extras) const {
  const SqloopOptions& options = ctx.options;
  // The delta snapshot repeats every round with fixed text: prepared once
  // on the master, executed per round.
  std::vector<dbc::PreparedStatement> snapshots;
  if (checker.needs_delta_snapshot()) {
    for (const auto& sql : checker.SnapshotSql(schema)) {
      snapshots.push_back(master.Prepare(sql));
    }
  }
  for (int64_t round = first_round;; ++round) {
    const RoundLease lease(ctx.gate, round);
    if (ctx.observer != nullptr) ctx.observer->OnRoundStart(round);
    if (const auto& fault = master.conn().fault_injector();
        fault != nullptr && fault->ShouldKillAtRound(round)) {
      // Simulated hard crash: in-database leftovers are dropped by the
      // runner's unwind path or the next run's setup; checkpoint files
      // survive for a `resume` run.
      throw JobKilledError("fault_kill_at_round fired at round " +
                           std::to_string(round));
    }
    const double round_start = watch.ElapsedSeconds();
    for (auto& stmt : snapshots) master.Execute(stmt);
    const RoundResult result = step(round, round_start);
    ctx.stats.iterations = round;
    ctx.stats.total_updates += result.updates;
    const bool satisfied =
        master.retrier().Run(master.conn(), "termination", -1, [&] {
          return checker.Satisfied(master.conn(), round, result.updates);
        });
    if (satisfied || result.quiesced) return;
    if (options.scrub_every > 0 && round % options.scrub_every == 0) {
      Scrub();
    }
    if (checkpoints.writer() != nullptr &&
        round % options.checkpoint_every == 0) {
      WriteCheckpoint(round, manifest_extras);
    }
    EnforceIterationGuard(options, cte, round);
  }
}

void RoundLoop::Scrub() const {
  // CHECK TABLE raises IntegrityError on a content checksum mismatch —
  // fatal to the retrier, so it surfaces straight to the repair ladder in
  // execute.cpp rather than being retried against the same corrupt rows.
  // Batched, 16 statements per submission.
  size_t queued = 0;
  for (const StateTable& s : state) {
    if (!s.scrub) continue;
    master.AddBatch("CHECK TABLE " + translator.Quote(s.table));
    if (++queued % 16 == 0) master.ExecuteBatch();
  }
  if (master.conn().batch_size() > 0) master.ExecuteBatch();
  ++ctx.stats.scrub_passes;
  SQLOOP_COUNT(ctx.recorder, "minidb.scrub_passes", 1);
}

void RoundLoop::WriteCheckpoint(
    int64_t round,
    FunctionRef<void(CheckpointManifest&)> manifest_extras) const {
  // End-of-round capture with the pool idle: this round's state is
  // exactly what round N+1 starts from.
  const double start = watch.ElapsedSeconds();
  CheckpointManager& writer = *checkpoints.writer();
  writer.BeginRound(round);
  CheckpointManifest m;
  m.round = round;
  m.mode = ExecutionModeName(checkpoints.mode());
  m.partitions = static_cast<int64_t>(checkpoints.partitions());
  // O(1) unchanged-table probe: CHECKSUM TABLE reports the maintained
  // content checksum without scanning. When it matches what the last
  // sealed checkpoint dumped, the sealed bytes are republished instead of
  // re-serializing the table. The dumps of changed tables go out as one
  // batch after every probe.
  for (const StateTable& s : state) {
    const std::string checksum =
        master.ExecuteQuery("CHECKSUM TABLE " + translator.Quote(s.table))
            .rows[0][1]
            .as_text();
    if (writer.TryReuseDump(round, s.stem, checksum)) {
      ++ctx.stats.checkpoint_dumps_reused;
      SQLOOP_COUNT(ctx.recorder, "checkpoint.dumps_reused", 1);
    } else {
      master.AddBatch("DUMP TABLE " + translator.Quote(s.table) + " TO " +
                      Value(writer.FileFor(round, s.stem)).ToSqlLiteral());
      writer.RecordDumpChecksum(round, s.stem, checksum);
    }
  }
  if (master.conn().batch_size() > 0) master.ExecuteBatch();
  manifest_extras(m);
  writer.Commit(std::move(m));
  ++ctx.stats.checkpoints_written;
  ctx.stats.checkpoints_verified = writer.verified_count();
  SQLOOP_COUNT(ctx.recorder, "checkpoint.writes", 1);
  EmitSpan(ctx.recorder, ctx.observer, telemetry::SpanKind::kCheckpoint,
           round, -1, start, watch.ElapsedSeconds() - start);
}

}  // namespace sqloop::core
