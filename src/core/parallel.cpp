#include "core/parallel.h"

#include "core/schema_infer.h"
#include "sql/parser.h"

#include <algorithm>
#include <condition_variable>
#include <cmath>
#include <functional>
#include <limits>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "dbc/driver.h"
#include "dbc/prepared_statement.h"
#include "minidb/schema.h"
#include "telemetry/hooks.h"

namespace sqloop::core {
namespace {

using minidb::FoldIdentifier;

std::string ReplaceAll(std::string text, const std::string& needle,
                       const std::string& replacement) {
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    text.replace(pos, needle.size(), replacement);
    pos += replacement.size();
  }
  return text;
}

/// Identity element of the aggregate's accumulation (paper §V-D).
Value AggregateIdentity(sql::AggFunc f) {
  switch (f) {
    case sql::AggFunc::kSum:
    case sql::AggFunc::kCount:
    case sql::AggFunc::kAvg:
      return Value(0.0);
    case sql::AggFunc::kMin:
      return Value(std::numeric_limits<double>::infinity());
    case sql::AggFunc::kMax:
      return Value(-std::numeric_limits<double>::infinity());
  }
  throw UsageError("unknown aggregate");
}

/// The aggregate the Gather side applies to partial message values —
/// COUNT partials are combined with SUM (paper §V-D).
sql::AggFunc GatherAggregate(sql::AggFunc f) {
  switch (f) {
    case sql::AggFunc::kSum:
    case sql::AggFunc::kCount:
      return sql::AggFunc::kSum;
    case sql::AggFunc::kMin:
      return sql::AggFunc::kMin;
    case sql::AggFunc::kMax:
      return sql::AggFunc::kMax;
    case sql::AggFunc::kAvg:
      break;  // AVG gathers SUM/COUNT pairs; handled separately
  }
  throw UsageError("GatherAggregate not defined for AVG");
}

// Hidden accumulator columns backing parallel AVG (paper §V-D: a Gather
// needs both the SUM and the COUNT to accumulate averages).
constexpr const char* kAvgSumColumn = "sqloop_avg_sum";
constexpr const char* kAvgCntColumn = "sqloop_avg_cnt";

// Hidden send-gating column for MIN/MAX workloads: the DAIC model only
// propagates *changed* deltas, so a row re-sends only after a gather
// improved it (otherwise converged regions would message forever and
// AsyncP could never skip them). 1 = changed since the last Compute.
constexpr const char* kDirtyColumn = "sqloop_dirty";

// Rows a source's outbox may hold as DELETE tombstones before collection
// compacts it (one storage page's worth).
constexpr uint64_t kCompactDeadRows = 1024;

}  // namespace

ParallelRunner::ParallelRunner(std::string url, dbc::Connection& master,
                               const sql::WithClause& with,
                               const CteAnalysis& analysis,
                               std::vector<sql::ColumnDef> schema,
                               const ExecutionContext& ctx)
    : url_(std::move(url)),
      master_(master),
      with_(with),
      analysis_(analysis),
      options_(ctx.options),
      stats_(ctx.stats),
      recorder_(ctx.recorder),
      observer_(ctx.observer),
      gate_(ctx.gate),
      shared_pool_(ctx.shared_pool),
      translator_(Translator::For(master)),
      schema_(std::move(schema)),
      checker_(with.termination, translator_, analysis.cte_name),
      partitions_(static_cast<size_t>(std::max(ctx.options.partitions, 1))),
      base_(analysis.cte_name),
      retrier_(ctx.options.retry, ctx.recorder, ctx.observer) {
  // Every connection the run touches — the lent master, each worker's
  // connection, spares opened for takeover — carries the run's governance
  // hooks, so cancellation and the memory budget cover all of them.
  retrier_.set_cancel_token(ctx.cancel);
  retrier_.set_memory_tracker(ctx.memory);
  retrier_.set_cancel_check_rows(ctx.options.cancel_check_rows);
  published_.assign(partitions_, 0);
  collected_.assign(partitions_, 0);
  collected_dead_rows_.assign(partitions_, 0);
  watermark_.assign(partitions_ * partitions_, 0);
  addressed_.assign(partitions_ * partitions_, 0);
  // The seed's rows, like a restored run's, have not been computed by
  // this run yet.
  pending_.assign(partitions_, 1);
  priorities_.assign(partitions_, std::nullopt);
  priority_known_.assign(partitions_, false);

  // Outbox layout (paper §V-C/§V-D), plus an indexed target-partition
  // column so each Gather reads only its own rows ("indexes on all tables
  // ... ensure that unnecessary scans will be avoided", §V-C), and the
  // producing Compute's seq stamp.
  message_schema_.push_back({"id", schema_[0].type, ""});
  if (analysis_.aggregate == sql::AggFunc::kAvg) {
    message_schema_.push_back({"sval", ValueType::kDouble, ""});
    message_schema_.push_back({"cval", ValueType::kInt64, ""});
  } else {
    message_schema_.push_back({"val", ValueType::kDouble, ""});
  }
  message_schema_.push_back({"target_pt", ValueType::kInt64, ""});
  message_schema_.push_back({"seq", ValueType::kInt64, ""});

  // The inbox stages one Gather's accumulated messages per id.
  inbox_schema_.push_back({"token", ValueType::kInt64, ""});
  inbox_schema_.push_back({"id", schema_[0].type, ""});
  if (analysis_.aggregate == sql::AggFunc::kAvg) {
    inbox_schema_.push_back({"s", ValueType::kDouble, ""});
    inbox_schema_.push_back({"c", ValueType::kInt64, ""});
  } else {
    inbox_schema_.push_back({"v", ValueType::kDouble, ""});
  }
}

std::string ParallelRunner::PartitionTable(size_t k) const {
  return base_ + "_pt" + std::to_string(k);
}

std::string ParallelRunner::MjoinTable(size_t k) const {
  return base_ + "_mj" + std::to_string(k);
}

std::string ParallelRunner::OutboxTable(size_t k) const {
  return base_ + "_msg" + std::to_string(k);
}

std::string ParallelRunner::CompactionTable() const {
  return base_ + "_msgc";
}

std::string ParallelRunner::InboxTable() const {
  return base_ + "_inbox";
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

void ParallelRunner::DropLeftovers() {
  MasterExecute("DROP VIEW IF EXISTS " + translator_.Quote(base_));
  master_.AddBatch(translator_.DropTableSql(base_));
  master_.AddBatch(translator_.DropTableSql(base_ + "_seed"));
  master_.AddBatch(translator_.DropTableSql(base_ + "_delta"));
  master_.AddBatch(translator_.DropTableSql(CompactionTable()));
  master_.AddBatch(translator_.DropTableSql(InboxTable()));
  for (size_t k = 0; k < partitions_; ++k) {
    master_.AddBatch(translator_.DropTableSql(PartitionTable(k)));
    master_.AddBatch(translator_.DropTableSql(MjoinTable(k)));
    master_.AddBatch(translator_.DropTableSql(OutboxTable(k)));
  }
  MasterExecuteBatch();
}

void ParallelRunner::CreatePartitions() {
  const std::string staging = base_ + "_seed";
  MasterExecute(translator_.CreateTableSql(staging, schema_, -1));
  MasterExecute("INSERT INTO " + translator_.Quote(staging) + " " +
                translator_.Render(*with_.seed));

  // Partition schema: declared columns (+ hidden accumulator/gating
  // columns depending on the aggregate).
  std::vector<sql::ColumnDef> partition_schema = schema_;
  const bool avg = analysis_.aggregate == sql::AggFunc::kAvg;
  const bool minmax = analysis_.aggregate == sql::AggFunc::kMin ||
                      analysis_.aggregate == sql::AggFunc::kMax;
  if (avg) {
    partition_schema.push_back({kAvgSumColumn, ValueType::kDouble, ""});
    partition_schema.push_back({kAvgCntColumn, ValueType::kInt64, ""});
  }
  if (minmax) {
    partition_schema.push_back({kDirtyColumn, ValueType::kInt64, ""});
  }

  std::string column_list = "(";
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (c > 0) column_list += ", ";
    column_list += translator_.Quote(schema_[c].name);
  }
  column_list += ")";

  const std::string key = translator_.Quote(schema_[0].name);
  const std::string p = std::to_string(partitions_);
  for (size_t k = 0; k < partitions_; ++k) {
    master_.AddBatch(translator_.CreateTableSql(PartitionTable(k),
                                                partition_schema,
                                                /*primary_key_index=*/0));
    // Hash partitioning on Rid (paper §V-B): ((key % P) + P) % P == k.
    master_.AddBatch("INSERT INTO " + translator_.Quote(PartitionTable(k)) +
                     " " + column_list + " SELECT * FROM " +
                     translator_.Quote(staging) + " WHERE ((" + key + " % " +
                     p + ") + " + p + ") % " + p + " = " +
                     std::to_string(k));
    if (avg) {
      master_.AddBatch("UPDATE " + translator_.Quote(PartitionTable(k)) +
                       " SET " + std::string(kAvgSumColumn) + " = 0, " +
                       std::string(kAvgCntColumn) + " = 0");
    }
    if (minmax) {
      // Everything is "changed" at the start: the seed values have never
      // been sent.
      master_.AddBatch("UPDATE " + translator_.Quote(PartitionTable(k)) +
                       " SET " + std::string(kDirtyColumn) + " = 1");
    }
  }
  master_.AddBatch(translator_.DropTableSql(staging));
  MasterExecuteBatch();
}

void ParallelRunner::CreateOutboxes(bool restored) {
  // One outbox per source partition, created once: the round loop then
  // issues no DDL, so no catalog_version bump re-binds any cached plan.
  // RESTORE TABLE brings rows back but not indexes.
  if (!restored) {
    for (size_t k = 0; k < partitions_; ++k) {
      master_.AddBatch(
          translator_.CreateTableSql(OutboxTable(k), message_schema_, -1));
    }
  }
  master_.AddBatch(
      translator_.CreateTableSql(CompactionTable(), message_schema_, -1));
  master_.AddBatch(translator_.CreateTableSql(InboxTable(), inbox_schema_, -1));
  master_.AddBatch("CREATE INDEX " + translator_.Quote(InboxTable() + "_t") +
                   " ON " + translator_.Quote(InboxTable()) + " (token)");
  for (size_t k = 0; k < partitions_; ++k) {
    const std::string outbox = OutboxTable(k);
    master_.AddBatch("CREATE INDEX " + translator_.Quote(outbox + "_t") +
                     " ON " + translator_.Quote(outbox) + " (target_pt)");
    if (k % 16 == 15) MasterExecuteBatch();
  }
  MasterExecuteBatch();
}

void ParallelRunner::CreateUnionView() {
  // R becomes a view of Rpt1 ∪ Rpt2 ∪ ... (paper §V-B), exposing exactly
  // the declared CTE columns (hidden AVG accumulators stay hidden).
  auto view_select = std::make_unique<sql::SelectStmt>();
  for (size_t k = 0; k < partitions_; ++k) {
    sql::SelectCore core;
    for (const auto& def : schema_) {
      core.items.push_back({sql::MakeColumnRef("", def.name), ""});
    }
    core.from = sql::MakeBaseTable(PartitionTable(k));
    if (k > 0) view_select->set_ops.push_back(sql::SetOp::kUnionAll);
    view_select->cores.push_back(std::move(core));
  }
  sql::Statement create;
  create.kind = sql::StatementKind::kCreateView;
  create.table_name = base_;
  create.view_select = std::move(view_select);
  MasterExecute(translator_.Render(create));
}

void ParallelRunner::MaterializeConstantJoins() {
  if (!options_.materialize_constant_join) return;  // ablation knob
  // Rmjoin (paper §V-B): the join's constant side — the bridging relation
  // filtered to rows whose from-key lives in the partition, projected to
  // the columns Ri actually uses.
  std::vector<sql::ColumnDef> mjoin_schema =
      retrier_.Run(master_, "setup", -1, [&] {
        return InferTableColumns(master_, translator_, analysis_.mid_table,
                                 analysis_.mid_columns_used);
      });

  std::string projection;
  for (size_t c = 0; c < analysis_.mid_columns_used.size(); ++c) {
    if (c > 0) projection += ", ";
    projection += "m." + translator_.Quote(analysis_.mid_columns_used[c]);
  }

  for (size_t k = 0; k < partitions_; ++k) {
    const std::string mjoin = MjoinTable(k);
    master_.AddBatch(translator_.CreateTableSql(mjoin, mjoin_schema, -1));
    master_.AddBatch(
        "INSERT INTO " + translator_.Quote(mjoin) + " SELECT " + projection +
        " FROM " + translator_.Quote(analysis_.mid_table) + " AS m JOIN " +
        translator_.Quote(PartitionTable(k)) + " AS r ON m." +
        translator_.Quote(analysis_.mid_from_key) + " = r." +
        translator_.Quote(schema_[0].name));
    // Index the scan key so the message query can do index nested loops
    // on MySQL-style engines (paper §V-C: "indexes on all tables").
    master_.AddBatch("CREATE INDEX " +
                     translator_.Quote(mjoin + "_from") + " ON " +
                     translator_.Quote(mjoin) + " (" +
                     translator_.Quote(analysis_.mid_from_key) + ")");
    if (k % 16 == 15) MasterExecuteBatch();
  }
  MasterExecuteBatch();
}

void ParallelRunner::BuildTaskSql() {
  const bool avg = analysis_.aggregate == sql::AggFunc::kAvg;
  const bool keep_delta = analysis_.aggregate == sql::AggFunc::kMin ||
                          analysis_.aggregate == sql::AggFunc::kMax;
  const std::string key = schema_[0].name;
  task_sql_.assign(static_cast<size_t>(TaskSql::kCount) * partitions_, "");
  TaskText(TaskSql::kTruncateInbox, 0) =
      "TRUNCATE TABLE " + translator_.Quote(InboxTable());
  TaskText(TaskSql::kTruncateCompaction, 0) =
      "TRUNCATE TABLE " + translator_.Quote(CompactionTable());

  // The Gather runs as two statements:
  //  1. kGatherRead, one text for every partition: a single query over the
  //     union of all the outboxes (paper §V-C), arm s reading source s's
  //     rows for the target partition through the target index within its
  //     bound seq window, accumulated per id with the gather function
  //     (§V-D) and staged in the inbox under a fresh token. Arms run in
  //     source order and each reads in insertion (= seq) order, so the
  //     accumulation order — and every floating-point SUM — is fixed
  //     whichever worker finished first.
  //  2. kGatherApply, per partition: folds the token's staged rows into
  //     the partition.
  // One union text shared by all partitions keeps the prepared state O(P);
  // a union per partition would hold P² arms.
  {
    const std::string arm_columns = avg ? "id, sval, cval" : "id, val";
    std::string union_sql;
    for (size_t s = 0; s < partitions_; ++s) {
      if (s > 0) union_sql += " UNION ALL ";
      union_sql += "SELECT " + arm_columns + " FROM " +
                   translator_.Quote(OutboxTable(s)) +
                   " WHERE target_pt = ? AND seq > ? AND seq <= ?";
    }
    const std::string accumulate =
        avg ? "SUM(sval), SUM(cval)"
            : std::string(sql::AggFuncName(
                  GatherAggregate(analysis_.aggregate))) +
                  "(val)";
    TaskText(TaskSql::kGatherRead, 0) =
        "INSERT INTO " + translator_.Quote(InboxTable()) + " SELECT ?, id, " +
        accumulate + " FROM (" + union_sql + ") AS msgs GROUP BY id";
  }
  const std::string alias = translator_.Quote(analysis_.primary_alias);
  const std::string delta = translator_.Quote(analysis_.delta_column);
  const std::string key_ref = alias + "." + translator_.Quote(key);
  const std::string gather_from =
      std::string(" FROM (SELECT ") + (avg ? "id, s, c" : "id, v") +
      " FROM " + translator_.Quote(InboxTable()) +
      " WHERE token = ?) AS m WHERE " + key_ref + " = m.id";
  std::string gather_set;  // SET ... for the kGatherApply statements
  if (avg) {
    // Accumulate SUM/COUNT pairs, recompute the user's expression with the
    // aggregate replaced by the accumulated ratio (paper §V-D).
    std::vector<const sql::Expr*> aggs;
    minidb::CollectAggregates(*analysis_.delta_expr, aggs);
    const std::string sum_ref =
        "(" + alias + "." + std::string(kAvgSumColumn) + " + m.s)";
    const std::string cnt_ref =
        "(" + alias + "." + std::string(kAvgCntColumn) + " + m.c)";
    const auto ratio =
        sql::ParseSelect("SELECT " + sum_ref + " / (" + cnt_ref + " + 0.0)");
    const auto rewritten = SubstituteAggregate(
        *analysis_.delta_expr, *aggs.at(0), *ratio->cores[0].items[0].expr);
    gather_set = " SET " + std::string(kAvgSumColumn) + " = " + alias + "." +
                 std::string(kAvgSumColumn) + " + m.s, " +
                 std::string(kAvgCntColumn) + " = " + alias + "." +
                 std::string(kAvgCntColumn) + " + m.c, " + delta +
                 " = CASE WHEN " + cnt_ref + " = 0 THEN " + alias + "." +
                 delta + " ELSE " + translator_.Render(*rewritten) + " END";
  } else {
    std::string combine;
    std::string dirty_update;
    switch (analysis_.aggregate) {
      case sql::AggFunc::kSum:
      case sql::AggFunc::kCount:
        combine = alias + "." + delta + " + m.v";
        break;
      case sql::AggFunc::kMin:
        combine = "LEAST(" + alias + "." + delta + ", m.v)";
        dirty_update = ", " + std::string(kDirtyColumn) +
                       " = CASE WHEN m.v < " + alias + "." + delta +
                       " THEN 1 ELSE " + alias + "." +
                       std::string(kDirtyColumn) + " END";
        break;
      case sql::AggFunc::kMax:
        combine = "GREATEST(" + alias + "." + delta + ", m.v)";
        dirty_update = ", " + std::string(kDirtyColumn) +
                       " = CASE WHEN m.v > " + alias + "." + delta +
                       " THEN 1 ELSE " + alias + "." +
                       std::string(kDirtyColumn) + " END";
        break;
      default:
        throw UsageError("unexpected aggregate in gather");
    }
    gather_set = " SET " + delta + " = " + combine + dirty_update;
  }

  for (size_t k = 0; k < partitions_; ++k) {
    const std::string pt = PartitionTable(k);
    const std::string outbox = translator_.Quote(OutboxTable(k));

    // Step 1 of Compute: the message query — Ridelta computed from the
    // partition's own rows joined with its materialized constant join,
    // stamped with the Compute's seq (the statement's only parameter).
    // (Runs before the own-column update; the workloads' message
    // expressions read Delta or LEAST(own, Delta), both invariant under
    // that update.)
    {
      auto select = std::make_unique<sql::SelectStmt>();
      sql::SelectCore core;
      core.items.push_back(
          {sql::MakeColumnRef(analysis_.mid_alias, analysis_.mid_to_key),
           "id"});
      if (avg) {
        std::vector<const sql::Expr*> aggs;
        minidb::CollectAggregates(*analysis_.delta_expr, aggs);
        const sql::Expr* agg = aggs.at(0);
        core.items.push_back({sql::MakeAggregate(sql::AggFunc::kSum,
                                                 agg->args[0]->Clone()),
                              "sval"});
        core.items.push_back({sql::MakeAggregate(sql::AggFunc::kCount,
                                                 agg->args[0]->Clone()),
                              "cval"});
      } else {
        core.items.push_back({analysis_.delta_expr->Clone(), "val"});
      }
      const std::string join_source = options_.materialize_constant_join
                                          ? MjoinTable(k)
                                          : analysis_.mid_table;
      core.from = sql::MakeJoin(
          sql::JoinKind::kInner,
          sql::MakeBaseTable(pt, analysis_.self_alias),
          sql::MakeBaseTable(join_source, analysis_.mid_alias),
          sql::MakeBinary(
              sql::BinaryOp::kEq,
              sql::MakeColumnRef(analysis_.self_alias, key),
              sql::MakeColumnRef(analysis_.mid_alias,
                                 analysis_.mid_from_key)));
      {
        // target_pt = ((to_key % P) + P) % P — which partition owns the row.
        const auto p_lit = [&] {
          return sql::MakeLiteral(
              Value(static_cast<int64_t>(partitions_)));
        };
        auto mod = sql::MakeBinary(
            sql::BinaryOp::kMod,
            sql::MakeBinary(
                sql::BinaryOp::kAdd,
                sql::MakeBinary(sql::BinaryOp::kMod,
                                sql::MakeColumnRef(analysis_.mid_alias,
                                                   analysis_.mid_to_key),
                                p_lit()),
                p_lit()),
            p_lit());
        core.items.push_back({std::move(mod), "target_pt"});
      }
      core.items.push_back({sql::MakeParameter(0), "seq"});
      if (analysis_.where != nullptr) core.where = analysis_.where->Clone();
      if (keep_delta) {
        // MIN/MAX: only rows whose delta improved since the last Compute
        // have anything new to say (DAIC change propagation).
        core.where = sql::AndTogether(
            std::move(core.where),
            sql::MakeBinary(sql::BinaryOp::kEq,
                            sql::MakeColumnRef(analysis_.self_alias,
                                               kDirtyColumn),
                            sql::MakeLiteral(Value(int64_t{1}))));
      }
      core.group_by.push_back(
          sql::MakeColumnRef(analysis_.mid_alias, analysis_.mid_to_key));
      select->cores.push_back(std::move(core));
      TaskText(TaskSql::kProduce, k) =
          "INSERT INTO " + outbox + " " + translator_.Render(*select);
    }
    TaskText(TaskSql::kRetract, k) = "DELETE FROM " + outbox + " WHERE seq = ?";
    TaskText(TaskSql::kTargets, k) =
        "SELECT DISTINCT target_pt FROM " + outbox + " WHERE seq = ?";
    TaskText(TaskSql::kCollect, k) =
        "DELETE FROM " + outbox + " WHERE seq <= ?";
    TaskText(TaskSql::kTruncate, k) = "TRUNCATE TABLE " + outbox;
    TaskText(TaskSql::kCompactOut, k) = "INSERT INTO " +
                                        translator_.Quote(CompactionTable()) +
                                        " SELECT * FROM " + outbox;
    TaskText(TaskSql::kCompactIn, k) =
        "INSERT INTO " + outbox + " SELECT * FROM " +
        translator_.Quote(CompactionTable());
    if (!options_.priority_query.empty()) {
      TaskText(TaskSql::kPriority, k) =
          ReplaceAll(options_.priority_query, "$PARTITION", pt);
    }

    // Step 2 of Compute, combined: update the partition's own columns and
    // reset the delta to the aggregate's identity — one statement, one
    // table scan. MIN/MAX deltas are NOT reset: their accumulation is
    // idempotent, and resetting would make freshly gathered (identical)
    // minima count as row updates forever, so `UNTIL n UPDATES` could
    // never trigger on cyclic graphs.
    {
      sql::Statement update;
      update.kind = sql::StatementKind::kUpdate;
      update.table_name = pt;
      update.update_alias = analysis_.primary_alias;
      for (const auto& own : analysis_.own_columns) {
        update.set_items.emplace_back(own.name, own.expr->Clone());
      }
      if (!keep_delta) {
        update.set_items.emplace_back(
            analysis_.delta_column,
            sql::MakeLiteral(AggregateIdentity(analysis_.aggregate)));
        if (avg) {
          update.set_items.emplace_back(kAvgSumColumn,
                                        sql::MakeLiteral(Value(0.0)));
          update.set_items.emplace_back(kAvgCntColumn,
                                        sql::MakeLiteral(Value(int64_t{0})));
        }
      } else {
        // The messages just sent cover everything changed so far.
        update.set_items.emplace_back(kDirtyColumn,
                                      sql::MakeLiteral(Value(int64_t{0})));
      }
      if (!update.set_items.empty()) {
        TaskText(TaskSql::kUpdate, k) = translator_.Render(update);
      }
    }

    TaskText(TaskSql::kGatherApply, k) =
        "UPDATE " + translator_.Quote(pt) + " AS " + alias + gather_set +
        gather_from;
  }
}

dbc::PreparedStatement& ParallelRunner::Statement(dbc::Connection& conn,
                                                  TaskSql kind,
                                                  size_t partition) {
  const size_t index = static_cast<size_t>(kind) * partitions_ + partition;
  std::optional<dbc::PreparedStatement>* slot = nullptr;
  {
    const std::scoped_lock lock(statements_mutex_);
    auto& slots = statements_[&conn];
    if (slots.empty()) slots.resize(task_sql_.size());
    slot = &slots[index];  // the vector never grows again: stable
  }
  if (!slot->has_value()) {
    slot->emplace(conn.Prepare(TaskText(kind, partition)));
    // Producing and retracting rows under a seq are the two statements a
    // Compute retry may repeat after an ambiguous outcome (applied, reply
    // lost): the retry deletes the seq's rows before re-inserting them.
    if (kind == TaskSql::kProduce || kind == TaskSql::kRetract) {
      (*slot)->set_retry_safe(true);
    }
  }
  return **slot;
}

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

uint64_t ParallelRunner::RunCompute(size_t partition, dbc::Connection& conn,
                                    ComputeAttempt& attempt) {
  uint64_t updates = 0;

  if (!attempt.messages_done) {
    if (attempt.seq == 0) {
      // Computes of one partition never overlap, so the next seq after the
      // published one is this Compute's alone; an empty batch publishes
      // nothing and leaves the seq to the partition's next Compute.
      const std::scoped_lock lock(registry_mutex_);
      attempt.seq = published_[partition] + 1;
    } else {
      // An earlier attempt failed somewhere after stamping its seq — its
      // INSERT may have been applied. Exactly-once comes from the stamp:
      // delete whatever rows carry it before producing them again.
      dbc::PreparedStatement& retract =
          Statement(conn, TaskSql::kRetract, partition);
      retract.SetInt64(1, static_cast<int64_t>(attempt.seq));
      retract.ExecuteUpdate();
    }
    dbc::PreparedStatement& produce =
        Statement(conn, TaskSql::kProduce, partition);
    produce.SetInt64(1, static_cast<int64_t>(attempt.seq));
    if (produce.ExecuteUpdate() > 0) {
      // Record which partitions this batch addresses, so a Gather with
      // nothing addressed to it runs no statement and AsyncP skips idle
      // partitions safely (paper §V-E: avoid unproductive tasks).
      dbc::PreparedStatement& probe =
          Statement(conn, TaskSql::kTargets, partition);
      probe.SetInt64(1, static_cast<int64_t>(attempt.seq));
      const auto result = probe.ExecuteQuery();
      std::vector<size_t> targets;
      targets.reserve(result.rows.size());
      for (const auto& row : result.rows) {
        targets.push_back(static_cast<size_t>(row[0].as_int()));
      }
      // Visible to gathers from here on — exactly once, since the phase
      // is marked done right after.
      Publish(partition, attempt.seq, targets);
    }
    attempt.messages_done = true;
  }

  if (!TaskText(TaskSql::kUpdate, partition).empty()) {
    updates += Statement(conn, TaskSql::kUpdate, partition).ExecuteUpdate();
  }
  {
    const std::scoped_lock lock(registry_mutex_);
    pending_[partition] = 0;
  }
  compute_tasks_.fetch_add(1);
  return updates;
}

uint64_t ParallelRunner::RunGather(size_t partition, dbc::Connection& conn) {
  // The window per source: everything published but not yet consumed.
  // Rows a concurrent Compute is still inserting lie above `upto`. A
  // source with nothing addressed to this partition in its window gets an
  // empty range, which the engine answers without scanning or locking its
  // outbox (a range core, DESIGN.md "Prepared execution & plan cache").
  std::vector<uint64_t> from(partitions_);
  std::vector<uint64_t> upto(partitions_);
  std::vector<uint64_t> read_upto(partitions_);
  uint64_t batches = 0;
  {
    const std::scoped_lock lock(registry_mutex_);
    for (size_t s = 0; s < partitions_; ++s) {
      const size_t cell = partition * partitions_ + s;
      from[s] = watermark_[cell];
      upto[s] = published_[s];
      const bool addressed = addressed_[cell] > from[s];
      read_upto[s] = addressed ? upto[s] : from[s];
      if (addressed) batches += upto[s] - from[s];
    }
  }
  // A fresh token per attempt: rows a failed attempt staged are never
  // applied, and the round border truncates them with the rest.
  const int64_t token = static_cast<int64_t>(inbox_tokens_.fetch_add(1));
  dbc::PreparedStatement& read = Statement(conn, TaskSql::kGatherRead, 0);
  read.SetInt64(1, token);
  for (size_t s = 0; s < partitions_; ++s) {
    const int arm = static_cast<int>(3 * s) + 2;  // target, from, upto
    read.SetInt64(arm, static_cast<int64_t>(partition));
    read.SetInt64(arm + 1, static_cast<int64_t>(from[s]));
    read.SetInt64(arm + 2, static_cast<int64_t>(read_upto[s]));
  }
  uint64_t updates = 0;
  if (read.ExecuteUpdate() > 0) {
    dbc::PreparedStatement& apply =
        Statement(conn, TaskSql::kGatherApply, partition);
    apply.SetInt64(1, token);
    updates = apply.ExecuteUpdate();
  }
  {
    const std::scoped_lock lock(registry_mutex_);
    for (size_t s = 0; s < partitions_; ++s) {
      uint64_t& mark = watermark_[partition * partitions_ + s];
      mark = std::max(mark, upto[s]);
    }
    if (updates > 0) pending_[partition] = 1;
  }
  // Counted at completion (not entry) so a retried gather counts once.
  gather_tasks_.fetch_add(1);
  messages_consumed_.fetch_add(batches);
  return updates;
}

bool ParallelRunner::SkipIdleGather(size_t partition) {
  {
    const std::scoped_lock lock(registry_mutex_);
    if (HasUnreadTargetedMessages(partition)) return false;
    // Nothing in the window is addressed here: consume it unread.
    for (size_t s = 0; s < partitions_; ++s) {
      uint64_t& mark = watermark_[partition * partitions_ + s];
      mark = std::max(mark, published_[s]);
    }
  }
  skipped_tasks_.fetch_add(1);
  return true;
}

bool ParallelRunner::SkipCleanCompute(size_t partition) {
  if (!analysis_.skip_clean_computes) return false;
  {
    // A Compute retried after a partial attempt is still pending: only a
    // finished Compute clears the flag.
    const std::scoped_lock lock(registry_mutex_);
    if (pending_[partition] != 0) return false;
  }
  skipped_tasks_.fetch_add(1);
  return true;
}

uint64_t ParallelRunner::TimedCompute(size_t partition, dbc::Connection& conn,
                                      ComputeAttempt& attempt) {
  const double start = run_watch_.ElapsedSeconds();
  const uint64_t updates = RunCompute(partition, conn, attempt);
  const double duration = run_watch_.ElapsedSeconds() - start;
  compute_ns_.fetch_add(static_cast<uint64_t>(duration * 1e9));
  EmitSpan(telemetry::SpanKind::kCompute, static_cast<int64_t>(partition),
           start, duration, updates);
  return updates;
}

uint64_t ParallelRunner::TimedGather(size_t partition, dbc::Connection& conn) {
  const double start = run_watch_.ElapsedSeconds();
  const uint64_t updates = RunGather(partition, conn);
  const double duration = run_watch_.ElapsedSeconds() - start;
  gather_ns_.fetch_add(static_cast<uint64_t>(duration * 1e9));
  EmitSpan(telemetry::SpanKind::kGather, static_cast<int64_t>(partition),
           start, duration, updates);
  return updates;
}

// ---------------------------------------------------------------------------
// Resilience (DESIGN.md "Failure model & resilience")
// ---------------------------------------------------------------------------

void ParallelRunner::MasterExecute(const std::string& sql) {
  retrier_.Run(master_, "master", -1, [&] {
    master_.Execute(sql);
    return 0;
  });
}

void ParallelRunner::MasterExecuteBatch() {
  // Safe to retry as one unit: a fault strikes before any batched
  // statement executes, and the queued batch survives the failure (and a
  // Reopen), so a retry resubmits exactly the original statements.
  retrier_.Run(master_, "master-batch", -1, [&] {
    master_.ExecuteBatch();
    return 0;
  });
}

void ParallelRunner::RunSpec(dbc::Connection& conn, TaskSpec& spec) {
  const size_t k = spec.partition;
  const auto partition = static_cast<int64_t>(k);
  if (spec.do_gather) {
    if (!SkipIdleGather(k)) {
      const uint64_t updates = retrier_.Run(conn, "gather", partition, [&] {
        return TimedGather(k, conn);
      });
      round_updates_.fetch_add(updates);
      spec.updates += updates;
    }
    spec.do_gather = false;
  }
  if (spec.do_compute) {
    if (!SkipCleanCompute(k)) {
      const uint64_t updates = retrier_.Run(conn, "compute", partition, [&] {
        return TimedCompute(k, conn, spec.compute);
      });
      round_updates_.fetch_add(updates);
      spec.updates += updates;
    }
    spec.do_compute = false;
  }
  if (spec.refresh_priority) {
    if (spec.updates > 0) {
      retrier_.Run(conn, "priority", partition, [&] {
        RefreshPriority(k, conn);
        return 0;
      });
    } else {
      // An unchanged partition keeps no claim to the scheduler's
      // attention until messages arrive for it.
      const std::scoped_lock lock(priority_mutex_);
      priorities_[k] = std::nullopt;
      priority_known_[k] = true;
    }
    spec.refresh_priority = false;
  }
}

void ParallelRunner::AbandonTask(TaskSpec spec) {
  const std::scoped_lock lock(degrade_mutex_);
  abandoned_.push_back(std::move(spec));
}

void ParallelRunner::DrainAbandoned() {
  std::vector<TaskSpec> pending;
  size_t remaining_workers = 0;
  {
    const std::scoped_lock lock(degrade_mutex_);
    pending.swap(abandoned_);
    remaining_workers = live_workers_;
  }
  if (pending.empty()) return;
  if (!round_degraded_) {
    round_degraded_ = true;
    ++degraded_rounds_;
    SQLOOP_COUNT(recorder_, "resilience.degraded_rounds", 1);
  }
  if (observer_ != nullptr) {
    observer_->OnDegrade(
        {DegradeEvent::Kind::kMasterTookOver, remaining_workers,
         std::to_string(pending.size()) +
             " abandoned task(s) re-executed on the master connection"});
  }
  // The last rung of the ladder: with every worker retired this loop IS
  // the single-thread fallback — the round completes on the master alone.
  // RetryExhausted here has no rung left below it and aborts the run.
  for (TaskSpec& spec : pending) {
    RunSpec(master_, spec);
  }
}

void ParallelRunner::FlushResilienceStats() {
  // += rather than =: a setup-phase Retrier (schema inference in sqloop.cpp)
  // may have accumulated counts before this runner existed.
  stats_.retries += retrier_.retries();
  stats_.reopened_connections += retrier_.reopened_connections();
  stats_.timeouts += retrier_.timeouts();
  stats_.workers_retired += workers_retired_.load();
  stats_.degraded_rounds += degraded_rounds_;
  stats_.partitions_rebalanced += rebalanced_.load();
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

void ParallelRunner::EmitSpan(telemetry::SpanKind kind, int64_t partition,
                              double start, double duration,
                              uint64_t updates) {
#if SQLOOP_TELEMETRY_ENABLED
  if (recorder_ == nullptr && observer_ == nullptr) return;
  telemetry::TaskSpan span;
  span.kind = kind;
  span.round = current_round_.load(std::memory_order_relaxed);
  span.partition = partition;
  span.thread_id = telemetry::Recorder::ThisThreadId();
  span.start_seconds = start;
  span.duration_seconds = duration;
  span.updates = updates;
  if (recorder_ != nullptr) recorder_->RecordSpan(span);
  if (observer_ != nullptr) observer_->OnTaskComplete(span);
#else
  (void)kind;
  (void)partition;
  (void)start;
  (void)duration;
  (void)updates;
#endif
}

void ParallelRunner::FinishRound(int64_t round, uint64_t updates,
                                 double round_start, double barrier_wait) {
  telemetry::IterationStats it;
  it.round = round;
  it.updates = updates;
  const uint64_t compute_tasks = compute_tasks_.load();
  const uint64_t gather_tasks = gather_tasks_.load();
  const uint64_t produced = message_count_.load();
  const uint64_t consumed = messages_consumed_.load();
  const uint64_t compute_ns = compute_ns_.load();
  const uint64_t gather_ns = gather_ns_.load();
  it.compute_tasks = compute_tasks - prev_compute_tasks_;
  it.gather_tasks = gather_tasks - prev_gather_tasks_;
  it.compute_seconds = static_cast<double>(compute_ns - prev_compute_ns_) * 1e-9;
  it.gather_seconds = static_cast<double>(gather_ns - prev_gather_ns_) * 1e-9;
  it.barrier_wait_seconds = barrier_wait;
  it.messages_produced = produced - prev_messages_produced_;
  it.messages_consumed = consumed - prev_messages_consumed_;
  const uint64_t skipped = skipped_tasks_.load();
  it.skipped_tasks = skipped - prev_skipped_;
  it.seconds = run_watch_.ElapsedSeconds() - round_start;
  prev_compute_tasks_ = compute_tasks;
  prev_gather_tasks_ = gather_tasks;
  prev_messages_produced_ = produced;
  prev_messages_consumed_ = consumed;
  prev_compute_ns_ = compute_ns;
  prev_gather_ns_ = gather_ns;
  prev_skipped_ = skipped;
  if (recorder_ != nullptr) recorder_->RecordIteration(it);
  if (observer_ != nullptr) observer_->OnRoundEnd(it);
}

// ---------------------------------------------------------------------------
// Message registry
// ---------------------------------------------------------------------------

void ParallelRunner::Publish(size_t source, uint64_t seq,
                             const std::vector<size_t>& targets) {
  const std::scoped_lock lock(registry_mutex_);
  published_[source] = seq;
  if (targets.empty()) {
    for (size_t t = 0; t < partitions_; ++t) {
      addressed_[t * partitions_ + source] = seq;
    }
  } else {
    for (const size_t t : targets) addressed_[t * partitions_ + source] = seq;
  }
  message_count_.fetch_add(1);
}

bool ParallelRunner::HasUnreadTargetedMessages(size_t partition) const {
  for (size_t s = 0; s < partitions_; ++s) {
    const size_t cell = partition * partitions_ + s;
    if (addressed_[cell] > watermark_[cell]) return true;
  }
  return false;
}

uint64_t ParallelRunner::ConsumedUpto(size_t source) const {
  uint64_t upto = published_[source];
  for (size_t t = 0; t < partitions_; ++t) {
    const size_t cell = t * partitions_ + source;
    if (addressed_[cell] > watermark_[cell]) {
      upto = std::min(upto, watermark_[cell]);
    }
  }
  return upto;
}

void ParallelRunner::CollectConsumedMessages() {
  // Runs at a round border with the pool idle: no Compute is mid-INSERT,
  // so an outbox whose every published row is consumed holds nothing else
  // and TRUNCATE (no catalog_version bump, no tombstones) empties it.
  // Otherwise a DELETE drops the consumed prefix of seqs.
  const auto run = [&](TaskSql kind, size_t slot, int64_t bind) {
    return retrier_.Run(master_, "master", -1, [&] {
      dbc::PreparedStatement& stmt = Statement(master_, kind, slot);
      if (bind >= 0) stmt.SetInt64(1, bind);
      return stmt.ExecuteUpdate();
    });
  };
  // Every token staged this round was applied (or abandoned by a retry).
  if (const uint64_t tokens = inbox_tokens_.load();
      tokens != inbox_truncated_at_) {
    run(TaskSql::kTruncateInbox, 0, -1);
    inbox_truncated_at_ = tokens;
  }
  for (size_t s = 0; s < partitions_; ++s) {
    uint64_t upto = 0;
    bool all = false;
    {
      const std::scoped_lock lock(registry_mutex_);
      upto = ConsumedUpto(s);
      all = upto == published_[s];
    }
    if (upto <= collected_[s]) continue;
    // Advance only once the statement is known to have executed: a
    // cancellation that aborts it must leave the rows accounted as live.
    if (all) {
      run(TaskSql::kTruncate, s, -1);
      collected_dead_rows_[s] = 0;
    } else {
      collected_dead_rows_[s] +=
          run(TaskSql::kCollect, s, static_cast<int64_t>(upto));
    }
    collected_[s] = upto;
    if (collected_dead_rows_[s] < kCompactDeadRows) continue;
    // Deleted payload lingers until the table is cleared; copy the live
    // rows out and back in (insertion order kept) to release it, so the
    // Async steady state (never fully consumed) stays bounded.
    run(TaskSql::kCompactOut, s, -1);
    run(TaskSql::kTruncate, s, -1);
    run(TaskSql::kCompactIn, s, -1);
    run(TaskSql::kTruncateCompaction, 0, -1);
    collected_dead_rows_[s] = 0;
  }
}

// ---------------------------------------------------------------------------
// Checkpointing / recovery (DESIGN.md "Checkpointing & recovery")
// ---------------------------------------------------------------------------

void ParallelRunner::SetupCheckpointing() {
  const bool want = options_.checkpoint_every > 0;
  if (!want && !options_.resume) return;
  // Identity ties checkpoints to the exact job: same query text, same mode,
  // same partition count — a resumed run replays the same statements over
  // the same layout, which is what makes the restored state meaningful.
  const std::string job_id = CheckpointManager::JobId(
      base_ + '|' + translator_.Render(*with_.seed) + '|' +
      translator_.Render(*with_.step) + '|' +
      translator_.Render(*with_.final_query) + '|' +
      ExecutionModeName(options_.mode) + '|' + std::to_string(partitions_));
  if (options_.resume) {
    resume_from_ =
        RecoveryManager(options_.checkpoint_dir, job_id).FindLatestValid();
    const size_t cells = partitions_ * partitions_;
    if (resume_from_ != std::nullopt &&
        (resume_from_->mode != ExecutionModeName(options_.mode) ||
         resume_from_->partitions != static_cast<int64_t>(partitions_) ||
         resume_from_->partition_files.size() != partitions_ ||
         resume_from_->outbox_files.size() != partitions_ ||
         resume_from_->published.size() != partitions_ ||
         resume_from_->watermarks.size() != cells ||
         resume_from_->addressed.size() != cells)) {
      // Identity hashing should make this unreachable; a mismatched layout
      // cannot be resumed, so fall back to a fresh run.
      resume_from_.reset();
    }
  }
  if (want) {
    ckpt_ = std::make_unique<CheckpointManager>(options_.checkpoint_dir,
                                                job_id,
                                                options_.checkpoint_keep,
                                                options_.verify_checkpoints);
  }
}

bool ParallelRunner::RestoreFromCheckpoint() {
  if (resume_from_ == std::nullopt) return false;
  const CheckpointManifest& m = *resume_from_;
  const double start = run_watch_.ElapsedSeconds();

  // Table payloads: every partition table and every outbox. The dump
  // stores the full schema (hidden AVG / dirty columns included) and
  // doubles as raw bit patterns, so the restored tables are
  // indistinguishable from the killed run's.
  for (size_t k = 0; k < partitions_; ++k) {
    master_.AddBatch("RESTORE TABLE " + translator_.Quote(PartitionTable(k)) +
                     " FROM " +
                     Value(m.partition_files[k]).ToSqlLiteral());
    master_.AddBatch("RESTORE TABLE " + translator_.Quote(OutboxTable(k)) +
                     " FROM " + Value(m.outbox_files[k]).ToSqlLiteral());
  }
  MasterExecuteBatch();

  // Registry state, captured right after the round's collection: the
  // outboxes hold exactly the rows above ConsumedUpto, without tombstones.
  // Every partition stays pending (as the constructor set it): a Compute
  // of a clean one is a no-op, so the first resumed round may run it.
  {
    const std::scoped_lock lock(registry_mutex_);
    published_ = m.published;
    watermark_ = m.watermarks;
    addressed_ = m.addressed;
    for (size_t s = 0; s < partitions_; ++s) {
      collected_[s] = ConsumedUpto(s);
      collected_dead_rows_[s] = 0;
    }
  }

  // AsyncP priority + dispatch state, for bit-identical tie-breaking.
  if (m.priorities.size() == partitions_ &&
      m.priority_known.size() == partitions_) {
    const std::scoped_lock lock(priority_mutex_);
    priorities_ = m.priorities;
    for (size_t k = 0; k < partitions_; ++k) {
      priority_known_[k] = m.priority_known[k] != 0;
    }
  }
  resume_round_ = m.round;
  resume_dispatch_seq_ = m.dispatch_seq;
  if (m.last_dispatch.size() == partitions_) {
    resume_last_dispatch_ = m.last_dispatch;
  }
  stats_.resumed_from_round = m.round;
  SQLOOP_COUNT(recorder_, "checkpoint.restores", 1);
  SQLOOP_TELEMETRY(EmitSpan(telemetry::SpanKind::kRestore, -1, start,
                            run_watch_.ElapsedSeconds() - start, 0););
  return true;
}

void ParallelRunner::WriteCheckpoint(
    int64_t round, uint64_t dispatch_seq,
    const std::vector<uint64_t>& last_dispatch) {
  const double start = run_watch_.ElapsedSeconds();
  ckpt_->BeginRound(round);
  CheckpointManifest m;
  m.round = round;
  m.mode = ExecutionModeName(options_.mode);
  m.partitions = static_cast<int64_t>(partitions_);
  // O(1) unchanged-table probe (see the single-thread runner): a table
  // whose maintained checksum still matches the last sealed dump
  // republishes those bytes instead of re-serializing. Converged
  // partitions in Sync/AsyncP runs, and outboxes left empty by the
  // round's collection, stop paying O(table) per checkpoint.
  const auto dump = [&](const std::string& table, const std::string& stem) {
    const std::string probe_sql = "CHECKSUM TABLE " + translator_.Quote(table);
    std::string checksum;
    retrier_.Run(master_, "master", -1, [&] {
      checksum = master_.ExecuteQuery(probe_sql).rows[0][1].as_text();
      return 0;
    });
    if (ckpt_->TryReuseDump(round, stem, checksum)) {
      ++stats_.checkpoint_dumps_reused;
      SQLOOP_COUNT(recorder_, "checkpoint.dumps_reused", 1);
    } else {
      master_.AddBatch("DUMP TABLE " + translator_.Quote(table) + " TO " +
                       Value(ckpt_->FileFor(round, stem)).ToSqlLiteral());
      ckpt_->RecordDumpChecksum(round, stem, checksum);
    }
    return stem;
  };
  for (size_t k = 0; k < partitions_; ++k) {
    m.partition_files.push_back(
        dump(PartitionTable(k), "pt" + std::to_string(k) + ".dump"));
  }
  for (size_t k = 0; k < partitions_; ++k) {
    m.outbox_files.push_back(
        dump(OutboxTable(k), "msg" + std::to_string(k) + ".dump"));
  }
  MasterExecuteBatch();
  {
    const std::scoped_lock lock(registry_mutex_);
    m.published = published_;
    m.watermarks = watermark_;
    m.addressed = addressed_;
  }
  {
    const std::scoped_lock lock(priority_mutex_);
    m.priorities = priorities_;
    m.priority_known.reserve(partitions_);
    for (size_t k = 0; k < partitions_; ++k) {
      m.priority_known.push_back(priority_known_[k] ? 1 : 0);
    }
  }
  m.dispatch_seq = dispatch_seq;
  m.last_dispatch = last_dispatch;
  ckpt_->Commit(std::move(m));
  ++stats_.checkpoints_written;
  stats_.checkpoints_verified = ckpt_->verified_count();
  SQLOOP_COUNT(recorder_, "checkpoint.writes", 1);
  SQLOOP_TELEMETRY(EmitSpan(telemetry::SpanKind::kCheckpoint, -1, start,
                            run_watch_.ElapsedSeconds() - start, 0););
}

void ParallelRunner::ScrubPartitions() {
  // Scrub BEFORE the checkpoint write at the same cadence point: a state
  // table that fails its content checksum must never be sealed into a
  // checkpoint. CHECK TABLE raises IntegrityError on a mismatch — fatal to
  // the retrier, so it surfaces straight to the repair ladder in
  // execute.cpp rather than being retried against the same corrupt rows.
  for (size_t k = 0; k < partitions_; ++k) {
    master_.AddBatch("CHECK TABLE " + translator_.Quote(PartitionTable(k)));
    if (k % 16 == 15) MasterExecuteBatch();
  }
  MasterExecuteBatch();
  ++stats_.scrub_passes;
  SQLOOP_COUNT(recorder_, "minidb.scrub_passes", 1);
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

void ParallelRunner::RefreshPriority(size_t partition, dbc::Connection& conn) {
  if (options_.priority_query.empty()) return;
  const double start = run_watch_.ElapsedSeconds();
  std::optional<double> priority;
  const auto result =
      Statement(conn, TaskSql::kPriority, partition).ExecuteQuery();
  if (!result.rows.empty() && !result.rows[0].empty() &&
      result.rows[0][0].is_numeric()) {
    const double v = result.rows[0][0].NumericAsDouble();
    if (std::isfinite(v)) priority = v;
  }
  {
    const std::scoped_lock lock(priority_mutex_);
    priorities_[partition] = priority;
    priority_known_[partition] = true;
  }
  SQLOOP_TELEMETRY(EmitSpan(telemetry::SpanKind::kPriority,
                            static_cast<int64_t>(partition), start,
                            run_watch_.ElapsedSeconds() - start, 0););
}

bool ParallelRunner::PartitionEligible(size_t partition, double* rank) {
  const std::scoped_lock lock(priority_mutex_, registry_mutex_);
  if (!priority_known_[partition]) {
    *rank = std::numeric_limits<double>::infinity();  // never measured
    return true;
  }
  if (priorities_[partition].has_value()) {
    const double v = *priorities_[partition];
    *rank = options_.priority_descending ? v : -v;
    return true;
  }
  if (HasUnreadTargetedMessages(partition)) {
    *rank = -std::numeric_limits<double>::infinity();  // consume, low rank
    return true;
  }
  return false;
}

void ParallelRunner::RunRounds() {
  // Under a shared pool (service runs) the job gets the pool's width; its
  // per-worker connections are opened lazily by the first task that lands
  // on each worker (worker_conn below), since a shared pool's start hooks
  // already ran for some other purpose long ago.
  const int threads = shared_pool_ != nullptr
                          ? static_cast<int>(shared_pool_->worker_count())
                          : options_.ResolveThreads();
  std::vector<std::unique_ptr<dbc::Connection>> worker_conns(
      static_cast<size_t>(threads));
  worker_dead_.assign(static_cast<size_t>(threads), 0);
  {
    const std::scoped_lock lock(degrade_mutex_);
    live_workers_ = static_cast<size_t>(threads);
  }
  std::unique_ptr<ThreadPool> owned_pool;
  if (shared_pool_ == nullptr) {
    owned_pool = std::make_unique<ThreadPool>(
        static_cast<size_t>(threads), [&](size_t index) {
          try {
            worker_conns[index] = dbc::DriverManager::GetConnection(url_);
            // Worker statements count toward the same run as the master's.
            worker_conns[index]->set_recorder(recorder_);
            worker_conns[index]->set_statement_timeout_ms(
                options_.retry.statement_timeout_ms);
            retrier_.ApplyGovernance(*worker_conns[index]);
          } catch (const std::exception& e) {
            if (IsTransientError(e)) return;  // first task re-attempts open
            const std::scoped_lock lock(failure_mutex_);
            if (!failure_) failure_ = std::current_exception();
          } catch (...) {
            const std::scoped_lock lock(failure_mutex_);
            if (!failure_) failure_ = std::current_exception();
          }
        });
  }
  // All submissions/barriers below go through the group: with a private
  // pool it is a transparent wrapper; with a shared pool its WaitIdle
  // waits only for THIS job's tasks, so concurrent jobs barrier
  // independently.
  TaskGroup pool(shared_pool_ != nullptr ? *shared_pool_ : *owned_pool);

  // However RunRounds exits, every worker connection is closed before the
  // pool unwinds — the failure path must not leak live connections until
  // some enclosing scope gets around to it. Declared after `pool` so it
  // runs first, and it drains the queue so no task can resurrect a
  // connection afterwards.
  struct WorkerConnCloser {
    ParallelRunner& runner;
    TaskGroup& pool;
    std::vector<std::unique_ptr<dbc::Connection>>& conns;
    ~WorkerConnCloser() {
      pool.WaitIdle();
      // Prepared handles point at these connections; none may outlive
      // the round loop that owns them.
      {
        const std::scoped_lock lock(runner.statements_mutex_);
        runner.statements_.clear();
      }
      for (auto& conn : conns) {
        if (conn && !conn->closed()) {
          try {
            conn->Close();
          } catch (...) {
            // Deterministic close is best-effort on the unwind path.
          }
        }
      }
    }
  } closer{*this, pool, worker_conns};

  const auto poison = [&] {
    const std::scoped_lock lock(failure_mutex_);
    if (!failure_) failure_ = std::current_exception();
  };
  // Shared-pool mode has no per-job start hook, so the first task landing
  // on a worker opens its connection here. An initial open is not a
  // recovery action and must not count as a reopen; only genuinely lost
  // connections go through the retrier's counted path. With a private
  // pool the start hook made the initial attempt, so an empty slot means
  // it failed and the task's open is already the counted retry — every
  // worker's open failures then meet the same retry budget, whichever
  // worker's thread happens to run first.
  const auto worker_conn = [&](size_t worker) -> dbc::Connection& {
    if (worker_conns[worker] == nullptr && shared_pool_ != nullptr) {
      try {
        auto conn = dbc::DriverManager::GetConnection(url_);
        conn->set_recorder(recorder_);
        conn->set_statement_timeout_ms(options_.retry.statement_timeout_ms);
        retrier_.ApplyGovernance(*conn);
        worker_conns[worker] = std::move(conn);
        return *worker_conns[worker];
      } catch (const std::exception& e) {
        if (!IsTransientError(e)) throw;
        // Transient connect fault: fall through to the counted retry path.
      }
    }
    return retrier_.EnsureOpen(worker_conns[worker], url_);
  };
  const auto worker_retired = [&](size_t worker) {
    const std::scoped_lock lock(degrade_mutex_);
    return worker_dead_[worker] != 0;
  };
  // Rung 3 of the ladder: a worker that exhausted its retry budget is
  // retired — the pool shrinks and the worker's connection closes for good.
  const auto retire_worker = [&](size_t worker, const std::string& reason) {
    size_t remaining = 0;
    {
      const std::scoped_lock lock(degrade_mutex_);
      if (worker_dead_[worker]) return;
      worker_dead_[worker] = 1;
      remaining = --live_workers_;
    }
    workers_retired_.fetch_add(1);
    SQLOOP_COUNT(recorder_, "resilience.workers_retired", 1);
    if (worker_conns[worker] && !worker_conns[worker]->closed()) {
      try {
        worker_conns[worker]->Close();
      } catch (...) {
      }
    }
    if (observer_ != nullptr) {
      observer_->OnDegrade(
          {DegradeEvent::Kind::kWorkerRetired, remaining, reason});
    }
  };

  // One spec on one worker thread. Transient faults retry inside RunSpec
  // (rungs 1-2: retry, reopen); budget exhaustion retires the worker and
  // forwards the spec's unfinished pieces to the master (rung 4); fatal
  // errors poison the run. A std::function so a task landing on a retired
  // worker can resubmit itself onto a surviving one.
  std::function<void(size_t, TaskSpec)> run_task = [&](size_t worker,
                                                       TaskSpec spec) {
    {
      const std::scoped_lock lock(failure_mutex_);
      if (failure_) return;
    }
    if (worker_retired(worker)) {
      // A retired worker's thread still drains the shared queue. Bounce
      // the task back so a surviving worker picks it up, instead of
      // pinning every such partition on the master; bounded bounces keep
      // a fully-dead pool draining deterministically via AbandonTask.
      size_t survivors = 0;
      {
        const std::scoped_lock lock(degrade_mutex_);
        survivors = live_workers_;
      }
      if (survivors > 0 && spec.bounces < 2 * threads) {
        if (spec.bounces == 0) {
          rebalanced_.fetch_add(1);
          SQLOOP_COUNT(recorder_, "resilience.tasks_rebalanced", 1);
        }
        ++spec.bounces;
        pool.Submit([&run_task, spec = std::move(spec)](size_t w) mutable {
          run_task(w, std::move(spec));
        });
      } else {
        AbandonTask(std::move(spec));
      }
      return;
    }
    try {
      dbc::Connection& conn = worker_conn(worker);
      RunSpec(conn, spec);
    } catch (const RetryExhausted& e) {
      if (options_.retry.allow_degradation) {
        retire_worker(worker, e.what());
        AbandonTask(std::move(spec));
      } else {
        poison();
      }
    } catch (...) {
      poison();
    }
  };

  const auto throw_if_failed = [&] {
    const std::scoped_lock lock(failure_mutex_);
    if (failure_) std::rethrow_exception(failure_);
  };

  const bool continuous_priority =
      options_.mode == ExecutionMode::kAsyncPriority &&
      !options_.priority_query.empty();

  // The delta snapshot repeats every round with fixed text: prepared once
  // on the master, executed per round. Task statements are prepared per
  // connection on first use (Statement()); the plan cache pins each text,
  // so whichever connection prepares it first parses it for all of them.
  std::vector<dbc::PreparedStatement> snapshot_stmts;
  if (checker_.needs_delta_snapshot()) {
    for (const auto& sql : checker_.SnapshotSql(schema_)) {
      snapshot_stmts.push_back(retrier_.Run(
          master_, "prepare", -1, [&] { return master_.Prepare(sql); }));
    }
  }

  // State for the continuous priority scheduler (paper §V-E: "instead of
  // scheduling ... in a round-robin fashion, the master thread maintains a
  // priority queue"). A "round" is a work window of `partitions_` completed
  // pair tasks — the budget an Async round would spend — so ITERATIONS
  // termination stays comparable across modes.
  std::mutex sched_mutex;
  std::condition_variable sched_cv;
  std::vector<char> running(partitions_, 0);
  std::vector<uint64_t> last_dispatch(partitions_, 0);
  uint64_t dispatch_seq = 0;
  size_t in_flight = 0;
  if (resume_round_ > 0 && resume_last_dispatch_.size() == partitions_) {
    // Restored AsyncP tie-breaking state: the first resumed window ranks
    // equal-priority partitions exactly as the killed run would have.
    last_dispatch = resume_last_dispatch_;
    dispatch_seq = resume_dispatch_seq_;
  }

  // One round's slot in the cross-job scheduler (service runs). EndRound
  // must fire on the unwind path too — a job that dies mid-round still has
  // to give its grant back or every other job would starve.
  struct RoundLease {
    RoundGate* gate;
    int64_t round;
    ~RoundLease() {
      if (gate != nullptr) gate->EndRound(round);
    }
  };

  for (int64_t round = resume_round_ + 1;; ++round) {
    // The gate may block (fair-share turn-taking) and may throw
    // JobCancelledError — the cooperative cancellation point at the round
    // border. Taken before any of the round's work, so a cancelled or
    // descheduled job holds no pool capacity while it waits.
    if (gate_ != nullptr) gate_->BeginRound(round);
    RoundLease lease{gate_, round};
    current_round_.store(round, std::memory_order_relaxed);
    round_degraded_ = false;
    if (observer_ != nullptr) observer_->OnRoundStart(round);
    if (const auto& fault = master_.fault_injector();
        fault != nullptr && fault->ShouldKillAtRound(round)) {
      // Simulated hard crash. Run() drops the in-database scratch state on
      // the way out (exactly what a process death forfeits); checkpoint
      // files survive on disk for a later `resume` run.
      throw JobKilledError("fault_kill_at_round fired at round " +
                           std::to_string(round));
    }
    const double round_start = run_watch_.ElapsedSeconds();
    double barrier_wait = 0;
    for (auto& stmt : snapshot_stmts) {
      retrier_.Run(master_, "master", -1, [&] {
        stmt.Execute();
        return 0;
      });
    }
    round_updates_.store(0);

    // Aggregate worker idle across one barriered phase: the pool has
    // `threads` workers for `wall` seconds; whatever they did not spend
    // inside tasks was spent waiting at the barrier. Abandoned tasks are
    // drained after the estimate so master takeover does not read as
    // barrier idleness.
    const auto barrier_phase = [&](auto submit_all) {
      const double phase_start = run_watch_.ElapsedSeconds();
      const uint64_t busy_before = compute_ns_.load() + gather_ns_.load();
      submit_all();
      pool.WaitIdle();
      throw_if_failed();
      const double wall = run_watch_.ElapsedSeconds() - phase_start;
      const double busy =
          static_cast<double>(compute_ns_.load() + gather_ns_.load() -
                              busy_before) *
          1e-9;
      barrier_wait += std::max(0.0, wall * threads - busy);
      DrainAbandoned();
    };

    if (options_.mode == ExecutionMode::kSync) {
      // Two-phase with explicit barriers (paper §V-E, Fig. 3 top). State
      // is frozen between barriers, so each phase dispatches only the
      // partitions with work; the skip rule decides on the master.
      barrier_phase([&] {
        for (size_t k = 0; k < partitions_; ++k) {
          if (SkipCleanCompute(k)) continue;
          pool.Submit([&run_task, k](size_t worker) {
            TaskSpec spec;
            spec.partition = k;
            spec.do_compute = true;
            run_task(worker, std::move(spec));
          });
        }
      });
      barrier_phase([&] {
        for (size_t k = 0; k < partitions_; ++k) {
          if (SkipIdleGather(k)) continue;
          pool.Submit([&run_task, k](size_t worker) {
            TaskSpec spec;
            spec.partition = k;
            spec.do_gather = true;
            run_task(worker, std::move(spec));
          });
        }
      });
    } else if (!continuous_priority) {
      // Async (and AsyncP without a priority query): Gather then Compute
      // per partition, no barrier between partitions (paper §V-E, Fig. 3
      // bottom). Each task applies the skip rule itself, so a partition a
      // Gather just changed computes in the same task.
      for (size_t k = 0; k < partitions_; ++k) {
        pool.Submit([&run_task, k](size_t worker) {
          TaskSpec spec;
          spec.partition = k;
          spec.do_gather = true;
          spec.do_compute = true;
          run_task(worker, std::move(spec));
        });
      }
      pool.WaitIdle();
      throw_if_failed();
      DrainAbandoned();
    } else {
      // AsyncP: continuously dispatch the highest-priority eligible
      // partition, keeping at most `threads` tasks in flight so every
      // dispatch decision sees fresh priorities. The same partition may
      // run several times within a window while unproductive ones are
      // never scheduled.
      size_t window_dispatched = 0;
      bool starved = false;
      while (window_dispatched < partitions_) {
        {
          // Dispatch-on-demand: wait for a free worker slot.
          std::unique_lock lock(sched_mutex);
          if (in_flight >= static_cast<size_t>(threads)) {
            sched_cv.wait(lock, [&] {
              return in_flight < static_cast<size_t>(threads);
            });
          }
        }
        int best = -1;
        double best_rank = 0;
        {
          // Highest rank wins; ties go to the least-recently-dispatched
          // partition so equal-priority work (e.g. message consumption)
          // is served fairly instead of starving high partition ids.
          const std::scoped_lock lock(sched_mutex);
          for (size_t k = 0; k < partitions_; ++k) {
            if (running[k]) continue;
            double rank;
            if (!PartitionEligible(k, &rank)) continue;
            if (best < 0 || rank > best_rank ||
                (rank == best_rank &&
                 last_dispatch[k] < last_dispatch[static_cast<size_t>(best)])) {
              best = static_cast<int>(k);
              best_rank = rank;
            }
          }
        }
        if (best < 0) {
          std::unique_lock lock(sched_mutex);
          if (in_flight > 0) {
            // In-flight work may enable new partitions; wait and re-scan.
            const size_t snapshot = in_flight;
            sched_cv.wait(lock, [&] { return in_flight < snapshot; });
            continue;
          }
          starved = true;  // nothing eligible at all
          break;
        }
        {
          const std::scoped_lock lock(sched_mutex);
          running[static_cast<size_t>(best)] = 1;
          last_dispatch[static_cast<size_t>(best)] = ++dispatch_seq;
          ++in_flight;
          ++window_dispatched;
        }
        const size_t k = static_cast<size_t>(best);
        pool.Submit([&run_task, k, &sched_mutex, &sched_cv, &running,
                     &in_flight](size_t worker) {
          TaskSpec spec;
          spec.partition = k;
          spec.do_gather = true;
          spec.do_compute = true;
          spec.refresh_priority = true;
          run_task(worker, std::move(spec));
          const std::scoped_lock lock(sched_mutex);
          running[k] = 0;
          --in_flight;
          sched_cv.notify_all();
        });
      }
      {
        std::unique_lock lock(sched_mutex);
        sched_cv.wait(lock, [&] { return in_flight == 0; });
      }
      throw_if_failed();
      // Drain before the starvation check: an abandoned pair the master
      // re-runs may still produce updates this window.
      DrainAbandoned();
      // A partition left with no productive work sits the window out
      // (§V-E): it counts as one skipped task.
      for (size_t k = 0; k < partitions_; ++k) {
        double rank;
        if (!PartitionEligible(k, &rank)) skipped_tasks_.fetch_add(1);
      }
      if (starved && round_updates_.load() == 0) {
        // Nothing can make progress anymore: quiesced. Check Tc once and
        // stop either way — further windows would be identical no-ops.
        CollectConsumedMessages();
        stats_.iterations = round;
        FinishRound(round, 0, round_start, barrier_wait);
        retrier_.Run(master_, "termination", -1,
                     [&] { return checker_.Satisfied(master_, round, 0); });
        break;
      }
    }

    CollectConsumedMessages();
    stats_.iterations = round;
    const uint64_t updates = round_updates_.load();
    stats_.total_updates += updates;
    FinishRound(round, updates, round_start, barrier_wait);
    // A zero-update window is genuine quiescence: the fair tie-breaking
    // above guarantees every pending message is consumed within a window,
    // so anything still unread is an idempotent re-send.
    const bool satisfied = retrier_.Run(master_, "termination", -1, [&] {
      return checker_.Satisfied(master_, round, updates);
    });
    if (satisfied) break;
    if (options_.scrub_every > 0 && round % options_.scrub_every == 0) {
      ScrubPartitions();
    }
    if (ckpt_ != nullptr && round % options_.checkpoint_every == 0) {
      WriteCheckpoint(round, dispatch_seq, last_dispatch);
    }
    if (round >= options_.max_iterations_guard) {
      throw ExecutionError("iterative CTE '" + with_.name +
                           "' did not satisfy its UNTIL condition within " +
                           std::to_string(options_.max_iterations_guard) +
                           " rounds");
    }
  }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void ParallelRunner::Cleanup() {
  // Cleanup runs precisely when the job may have been cancelled, and the
  // dbc layer rejects every statement while a cancel token is armed —
  // detach it so the drops (cheap, bounded DDL) can land; the caller's
  // TimeoutGuard re-attaches the original token after Run unwinds.
  const CancelToken* const armed_token = master_.cancel_token();
  master_.set_cancel_token(nullptr);
  try {
    // The run may have ended with the master connection dropped by a
    // fault; cleanup needs a live connection or nothing below can work.
    if (master_.closed()) master_.Reopen();
    master_.Execute("DROP VIEW IF EXISTS " + translator_.Quote(base_));
    for (size_t k = 0; k < partitions_; ++k) {
      master_.AddBatch(translator_.DropTableSql(PartitionTable(k)));
      master_.AddBatch(translator_.DropTableSql(MjoinTable(k)));
      master_.AddBatch(translator_.DropTableSql(OutboxTable(k)));
    }
    master_.AddBatch(translator_.DropTableSql(CompactionTable()));
    master_.AddBatch(translator_.DropTableSql(InboxTable()));
    master_.AddBatch(translator_.DropTableSql(base_ + "_seed"));
    master_.AddBatch(translator_.DropTableSql(base_ + "_delta"));
    master_.ExecuteBatch();
  } catch (...) {
    // Cleanup is best-effort; the original error (if any) matters more.
  }
  master_.set_cancel_token(armed_token);
}

dbc::ResultSet ParallelRunner::Run() {
  const Stopwatch watch;
  // The caller owns the master connection; apply the run's statement
  // timeout and governance hooks for the duration of the run and restore
  // the old values after.
  struct TimeoutGuard {
    dbc::Connection& conn;
    int64_t saved;
    const CancelToken* saved_token;
    MemoryTracker* saved_tracker;
    int64_t saved_check_rows;
    ~TimeoutGuard() {
      conn.set_statement_timeout_ms(saved);
      conn.set_cancel_token(saved_token);
      conn.set_memory_tracker(saved_tracker);
      conn.set_cancel_check_rows(saved_check_rows);
    }
  } timeout_guard{master_, master_.statement_timeout_ms(),
                  master_.cancel_token(), master_.active_memory_tracker(),
                  master_.cancel_check_rows()};
  master_.set_statement_timeout_ms(options_.retry.statement_timeout_ms);
  retrier_.ApplyGovernance(master_);
  try {
    const double setup_start = run_watch_.ElapsedSeconds();
    SetupCheckpointing();
    DropLeftovers();
    const bool restored = RestoreFromCheckpoint();
    if (!restored) CreatePartitions();
    CreateOutboxes(restored);
    CreateUnionView();
    MaterializeConstantJoins();
    BuildTaskSql();
    SQLOOP_TELEMETRY(EmitSpan(telemetry::SpanKind::kSetup, -1, setup_start,
                              run_watch_.ElapsedSeconds() - setup_start, 0););
    RunRounds();

    const double final_start = run_watch_.ElapsedSeconds();
    dbc::ResultSet result = retrier_.Run(master_, "final", -1, [&] {
      return master_.ExecuteQuery(translator_.Render(*with_.final_query));
    });
    SQLOOP_TELEMETRY(EmitSpan(telemetry::SpanKind::kFinal, -1, final_start,
                              run_watch_.ElapsedSeconds() - final_start, 0););

    stats_.mode_used = options_.mode;
    stats_.parallelized = true;
    stats_.compute_tasks = compute_tasks_.load();
    stats_.gather_tasks = gather_tasks_.load();
    stats_.skipped_tasks = skipped_tasks_.load();
    stats_.message_tables = message_count_.load();
    stats_.seconds = watch.ElapsedSeconds();

    if (options_.keep_result_tables) {
      // Keep the view + partitions for post-run sampling, but clear the
      // outboxes and the constant-join materialization.
      for (size_t k = 0; k < partitions_; ++k) {
        master_.AddBatch(translator_.DropTableSql(MjoinTable(k)));
        master_.AddBatch(translator_.DropTableSql(OutboxTable(k)));
      }
      master_.AddBatch(translator_.DropTableSql(CompactionTable()));
      master_.AddBatch(translator_.DropTableSql(InboxTable()));
      MasterExecuteBatch();
    } else {
      Cleanup();
    }
    FlushResilienceStats();
    return result;
  } catch (...) {
    FlushResilienceStats();  // partial counters still tell the story
    Cleanup();
    throw;
  }
}

}  // namespace sqloop::core
