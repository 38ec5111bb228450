#include "core/single_thread.h"

#include "common/error.h"
#include "common/stopwatch.h"
#include "core/schema_infer.h"
#include "core/termination.h"
#include "core/translator.h"
#include "minidb/schema.h"
#include "sql/value.h"
#include "telemetry/hooks.h"

namespace sqloop::core {
namespace {

using minidb::FoldIdentifier;

/// Builds `UPDATE <target> SET c1 = <alias>.c1, ... FROM <source> AS
/// <alias> WHERE <target>.<key> = <alias>.<key>` — the Rid ∩ Rtmp_id merge
/// of §III-A.
std::string BuildMergeSql(const Translator& translator,
                          const std::string& target,
                          const std::string& source,
                          const std::vector<sql::ColumnDef>& schema) {
  static constexpr const char* kAlias = "sqloop_tmp";
  sql::Statement update;
  update.kind = sql::StatementKind::kUpdate;
  update.table_name = target;
  for (size_t i = 1; i < schema.size(); ++i) {
    update.set_items.emplace_back(schema[i].name,
                                  sql::MakeColumnRef(kAlias, schema[i].name));
  }
  update.update_from = sql::MakeBaseTable(source, kAlias);
  update.where =
      sql::MakeBinary(sql::BinaryOp::kEq,
                      sql::MakeColumnRef(target, schema[0].name),
                      sql::MakeColumnRef(kAlias, schema[0].name));
  return translator.Render(update);
}

}  // namespace

dbc::ResultSet RunIterativeSingleThread(ResilientConn& rc,
                                        const sql::WithClause& with,
                                        const ExecutionContext& ctx) {
  const SqloopOptions& options = ctx.options;
  RunStats& stats = ctx.stats;
  const Stopwatch watch;
  dbc::Connection& connection = rc.conn();
  const Translator translator = Translator::For(connection);
  const std::string table = FoldIdentifier(with.name);
  const std::string tmp = table + "_tmp";

  // Schema inference only issues read-only probes, so the whole call is a
  // safe retry unit.
  const auto schema = rc.retrier().Run(connection, "setup", -1, [&] {
    return InferSchemaFromSelect(connection, translator, *with.seed,
                                 with.columns,
                                 /*widen_non_key=*/true);
  });
  if (schema.size() < 2) {
    throw AnalysisError("an iterative CTE needs a key column plus at least "
                        "one value column");
  }
  const TerminationChecker checker(with.termination, translator, table);
  const JobCheckpoints checkpoints(options, translator, table, with,
                                   ExecutionMode::kSingleThread,
                                   /*partitions=*/0);

  // CREATE TABLE R; INSERT INTO R R0 (paper §IV-B) — or, when resuming,
  // R restored from the newest valid checkpoint.
  rc.Execute(translator.DropTableSql(table));
  rc.Execute(translator.DropTableSql(tmp));
  rc.Execute(translator.DropTableSql(checker.delta_table()));
  int64_t start_iteration = 1;
  if (const auto& resume_from = checkpoints.resume_from()) {
    // The dump stores doubles as raw bit patterns and the restore reinserts
    // rows in dump order, so the resumed table is indistinguishable from
    // the one the killed run held after this round.
    const double restore_start = watch.ElapsedSeconds();
    rc.Execute("RESTORE TABLE " + translator.Quote(table) + " FROM " +
               Value(resume_from->table_file).ToSqlLiteral());
    start_iteration = resume_from->round + 1;
    stats.resumed_from_round = resume_from->round;
    SQLOOP_COUNT(ctx.recorder, "checkpoint.restores", 1);
    EmitSpan(ctx.recorder, ctx.observer, telemetry::SpanKind::kRestore,
             resume_from->round, -1, restore_start,
             watch.ElapsedSeconds() - restore_start);
  } else {
    rc.Execute(
        translator.CreateTableSql(table, schema, /*primary_key_index=*/0));
    rc.Execute("INSERT INTO " + translator.Quote(table) + " " +
               translator.Render(*with.seed));
  }

  // Rtmp is created once and emptied by TRUNCATE after every merge: the
  // loop issues no DDL, so it never bumps the database's catalog_version
  // and never forces a re-bind of any cached plan — its own or those of
  // concurrent jobs sharing the database. Every statement the loop
  // repeats is prepared exactly once here; the iterations below only
  // execute the handles.
  rc.Execute(translator.CreateTableSql(tmp, schema, /*primary_key_index=*/0));
  auto insert_tmp_stmt = rc.Prepare("INSERT INTO " + translator.Quote(tmp) +
                                    " " + translator.Render(*with.step));
  auto merge_stmt = rc.Prepare(BuildMergeSql(translator, table, tmp, schema));
  auto truncate_tmp_stmt =
      rc.Prepare("TRUNCATE TABLE " + translator.Quote(tmp));

  static constexpr const char* kTableDump = "table.dump";
  const RoundLoop loop{ctx,    rc,        translator,  watch,
                       checker, schema,    with.name,   checkpoints,
                       {{table, kTableDump}}};
  loop.Run(
      start_iteration,
      [&](int64_t iteration, double body_start) {
        // Rtmp <- Ri(R); R <- merge(R, Rtmp) on matching keys.
        rc.Execute(insert_tmp_stmt);
        const size_t updates = rc.ExecuteUpdate(merge_stmt);
        rc.Execute(truncate_tmp_stmt);
        RecordRound(ctx, watch, iteration, updates, body_start);
        return RoundResult{updates};
      },
      [&](CheckpointManifest& m) { m.table_file = kTableDump; });

  dbc::ResultSet result =
      rc.ExecuteQuery(translator.Render(*with.final_query));

  rc.Execute(translator.DropTableSql(tmp));
  if (!options.keep_result_tables) {
    rc.Execute(translator.DropTableSql(table));
    rc.Execute(translator.DropTableSql(checker.delta_table()));
  }
  stats.mode_used = ExecutionMode::kSingleThread;
  stats.seconds = watch.ElapsedSeconds();
  return result;
}

dbc::ResultSet RunRecursiveEmulated(dbc::Connection& connection,
                                    const sql::WithClause& with,
                                    const ExecutionContext& ctx) {
  const SqloopOptions& options = ctx.options;
  RunStats& stats = ctx.stats;
  const Stopwatch watch;
  const Translator translator = Translator::For(connection);
  const std::string table = FoldIdentifier(with.name);
  const std::string work_a = table + "_wa";
  const std::string work_b = table + "_wb";

  ResilientConn rc(connection, ctx);

  // Recursive CTEs append, never mutate — keep sampled types, allow
  // duplicate rows (no primary key).
  const auto schema = rc.retrier().Run(connection, "setup", -1, [&] {
    return InferSchemaFromSelect(connection, translator, *with.seed,
                                 with.columns,
                                 /*widen_non_key=*/false);
  });
  for (const auto& name : {table, work_a, work_b}) {
    rc.Execute(translator.DropTableSql(name));
  }
  rc.Execute(translator.CreateTableSql(table, schema, -1));
  rc.Execute(translator.CreateTableSql(work_a, schema, -1));
  const std::string seed_sql = translator.Render(*with.seed);
  rc.Execute("INSERT INTO " + translator.Quote(table) + " " + seed_sql);
  rc.Execute("INSERT INTO " + translator.Quote(work_a) + " " + seed_sql);

  // Semi-naive loop: the step only ever sees the previous delta. No Tc
  // and no checkpoint — the loop ends when a round produces nothing.
  std::string current = work_a;
  std::string next = work_b;
  for (int64_t round = 1;; ++round) {
    const RoundLease lease(ctx.gate, round);
    if (ctx.observer != nullptr) ctx.observer->OnRoundStart(round);
    const double body_start = watch.ElapsedSeconds();
    auto step = with.step->Clone();
    RenameBaseTables(*step, {{table, current}});
    rc.Execute(translator.CreateTableSql(next, schema, -1));
    const size_t produced =
        rc.ExecuteUpdate("INSERT INTO " + translator.Quote(next) + " " +
                         translator.Render(*step));
    stats.iterations = round;
    stats.total_updates += produced;
    if (produced == 0) {
      rc.Execute(translator.DropTableSql(next));
      RecordRound(ctx, watch, round, 0, body_start);
      break;
    }
    rc.Execute("INSERT INTO " + translator.Quote(table) + " SELECT * FROM " +
               translator.Quote(next));
    rc.Execute(translator.DropTableSql(current));
    std::swap(current, next);
    RecordRound(ctx, watch, round, produced, body_start);
    EnforceIterationGuard(options, with.name, round);
  }

  dbc::ResultSet result =
      rc.ExecuteQuery(translator.Render(*with.final_query));
  if (!options.keep_result_tables) {
    rc.Execute(translator.DropTableSql(table));
    rc.Execute(translator.DropTableSql(current));
  }
  stats.mode_used = ExecutionMode::kSingleThread;
  stats.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace sqloop::core
