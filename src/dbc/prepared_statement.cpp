#include "dbc/prepared_statement.h"

#include <utility>

#include "common/error.h"
#include "common/stopwatch.h"
#include "telemetry/hooks.h"

namespace sqloop::dbc {

PreparedStatement Connection::Prepare(std::string sql) {
  EnsureOpen();
  // Like Execute, the prepare round trip is fault-exposed: a failure here
  // reaches the client before any server-side state exists.
  MaybeInjectFault();
  PayRoundTrip();  // ship the statement text for server-side compilation
  ++stats_.prepared_statements;
  SQLOOP_COUNT(recorder_, "dbc.prepared_statements", 1);
  const Stopwatch prepare_watch;
  PreparedStatement prepared(*this, std::move(sql));
  SQLOOP_TIME_SECONDS(recorder_, "dbc.prepare_seconds",
                      prepare_watch.ElapsedSeconds());
  // The PREPARE itself compiles server-side unless the plan was cached.
  if (!db_->plan_cache().enabled() || executor_.last_prepare_parsed()) {
    PayCompile();
  }
  return prepared;
}

PreparedStatement::PreparedStatement(Connection& conn, std::string sql)
    : conn_(&conn), sql_(std::move(sql)) {
  if (conn_->db_->plan_cache().enabled()) {
    plan_ = conn_->executor_.Prepare(sql_);
    param_count_ = plan_->param_count;
    bound_ = plan_->ast->Clone();
    CollectSlots();
  } else {
    // Cache disabled (`--no-plan-cache`): compile locally; EnsureFresh
    // re-parses on every execute to model the unprepared world.
    Recompile();
  }
  binds_.resize(static_cast<size_t>(param_count_));
  has_bind_.assign(static_cast<size_t>(param_count_), 0);
}

void PreparedStatement::Recompile() {
  minidb::ParsedStatement parsed = minidb::ParseCounted(sql_, conn_->recorder_);
  bound_ = std::move(parsed.ast);
  param_count_ = parsed.param_count;
  CollectSlots();
}

void PreparedStatement::CollectSlots() {
  slots_.assign(static_cast<size_t>(param_count_), nullptr);
  sql::VisitStatementExprsMutable(*bound_, [this](sql::Expr& expr) {
    // A slot stays identifiable after a bind rewrote it to a literal:
    // param_index survives the rewrite.
    if (expr.param_index >= 0 && expr.param_index < param_count_) {
      slots_[static_cast<size_t>(expr.param_index)] = &expr;
    }
  });
}

void PreparedStatement::CheckIndex(int index) const {
  if (index < 1 || index > param_count_) {
    throw UsageError("parameter index " + std::to_string(index) +
                     " out of range: statement has " +
                     std::to_string(param_count_) + " parameter(s)");
  }
}

void PreparedStatement::SetInt64(int index, int64_t value) {
  CheckIndex(index);
  binds_[static_cast<size_t>(index - 1)] = Value(value);
  has_bind_[static_cast<size_t>(index - 1)] = 1;
}

void PreparedStatement::SetDouble(int index, double value) {
  CheckIndex(index);
  binds_[static_cast<size_t>(index - 1)] = Value(value);
  has_bind_[static_cast<size_t>(index - 1)] = 1;
}

void PreparedStatement::SetText(int index, std::string value) {
  CheckIndex(index);
  binds_[static_cast<size_t>(index - 1)] = Value(std::move(value));
  has_bind_[static_cast<size_t>(index - 1)] = 1;
}

void PreparedStatement::SetNull(int index) {
  CheckIndex(index);
  binds_[static_cast<size_t>(index - 1)] = Value::Null();
  has_bind_[static_cast<size_t>(index - 1)] = 1;
}

void PreparedStatement::ClearParameters() {
  binds_.assign(static_cast<size_t>(param_count_), Value::Null());
  has_bind_.assign(static_cast<size_t>(param_count_), 0);
}

void PreparedStatement::RequireAllBound() const {
  for (int i = 0; i < param_count_; ++i) {
    if (!has_bind_[static_cast<size_t>(i)]) {
      throw UsageError("parameter ?" + std::to_string(i + 1) +
                       " is unbound — call Set* before executing");
    }
  }
}

bool PreparedStatement::EnsureFresh() {
  minidb::Database& db = *conn_->db_;
  if (!db.plan_cache().enabled()) {
    // Ablation path. Also covers the cache being switched off after this
    // handle was prepared: drop the stale server-side plan.
    plan_ = nullptr;
    Recompile();
    return true;
  }
  if (plan_ == nullptr) {
    // Prepared while the cache was off, or first execute after re-enable.
    plan_ = conn_->executor_.Prepare(sql_);
    return conn_->executor_.last_prepare_parsed();
  }
  if (plan_->bound_version != db.catalog_version()) {
    // DDL happened since the plan was bound. Prepare() reuses the cached
    // AST and only re-binds the lock plan — no re-parse. bound_ stays: the
    // AST for a fixed text never changes.
    plan_ = conn_->executor_.Prepare(sql_);
    return conn_->executor_.last_prepare_parsed();
  }
  // The handle's plan is still bound to the live catalog: served from the
  // cache without a lookup, but counted as the hit it is, so the hit count
  // does not depend on whether DDL happened to run in between.
  db.plan_cache().NoteLocalHit();
  SQLOOP_COUNT(conn_->recorder_, "minidb.plan_cache_hits", 1);
  return false;
}

ResultSet PreparedStatement::Submit(const std::vector<Value>& values) {
  ApplyBinds(values);
  ResultSet result =
      plan_ != nullptr
          ? conn_->executor_.ExecuteWithPlan(*bound_, *plan_->locks,
                                             &conn_->session_)
          : conn_->executor_.Execute(*bound_, &conn_->session_);
  return result;
}

void PreparedStatement::ApplyBinds(const std::vector<Value>& values) {
  for (int i = 0; i < param_count_; ++i) {
    sql::Expr* slot = slots_[static_cast<size_t>(i)];
    slot->kind = sql::ExprKind::kLiteral;
    slot->literal = values[static_cast<size_t>(i)];
  }
}

ResultSet PreparedStatement::Execute() {
  RequireAllBound();
  conn_->EnsureOpen();
  // Same fault exposure and cancellation points as Connection::Execute: a
  // failure strikes before the engine applies anything, so the caller may
  // retry the handle.
  conn_->ThrowIfCancelled();
  conn_->MaybeInjectFault();
  conn_->ThrowIfCancelled();
  conn_->PayRoundTrip();
  ++conn_->stats_.statements;
  ++conn_->stats_.prepared_executions;
  SQLOOP_COUNT(conn_->recorder_, "dbc.statements", 1);
  SQLOOP_COUNT(conn_->recorder_, "dbc.prepared_executions", 1);
  conn_->EnsureTransactionIfNeeded();
  if (EnsureFresh()) conn_->PayCompile();
  const Stopwatch execute_watch;
  conn_->ArmStatementDeadline();
  ResultSet result;
  try {
    result = Submit(binds_);
  } catch (...) {
    conn_->executor_.clear_statement_deadline();
    throw;
  }
  conn_->executor_.clear_statement_deadline();
  SQLOOP_TIME_SECONDS(conn_->recorder_, "dbc.execute_seconds",
                      execute_watch.ElapsedSeconds());
  conn_->PayServerWork(result.rows_examined);
  if (retry_safe_ && conn_->fault_ && conn_->fault_->ShouldLoseReply()) {
    conn_->DropNow();
    throw ConnectionLostError(
        "injected lost reply: statement applied, connection dropped");
  }
  return result;
}

void PreparedStatement::AddBatch() {
  RequireAllBound();
  batch_.push_back(binds_);
}

std::vector<size_t> PreparedStatement::ExecuteBatch() {
  conn_->EnsureOpen();
  // Mirrors Connection::ExecuteBatch: one fault decision and one round
  // trip for the whole batch; the queue survives a pre-engine failure.
  conn_->ThrowIfCancelled();
  conn_->MaybeInjectFault();
  conn_->ThrowIfCancelled();
  conn_->PayRoundTrip();
  SQLOOP_COUNT(conn_->recorder_, "dbc.batches", 1);
  SQLOOP_COUNT(conn_->recorder_, "dbc.batch_statements", batch_.size());
  conn_->EnsureTransactionIfNeeded();
  // One statement, one compile decision for the whole batch.
  if (EnsureFresh()) conn_->PayCompile();
  std::vector<size_t> affected;
  affected.reserve(batch_.size());
  size_t rows_examined = 0;
  for (const std::vector<Value>& values : batch_) {
    ++conn_->stats_.statements;
    ++conn_->stats_.prepared_executions;
    SQLOOP_COUNT(conn_->recorder_, "dbc.statements", 1);
    SQLOOP_COUNT(conn_->recorder_, "dbc.prepared_executions", 1);
    ResultSet result = Submit(values);
    rows_examined += result.rows_examined;
    affected.push_back(result.affected_rows);
  }
  batch_.clear();
  conn_->PayServerWork(rows_examined);
  return affected;
}

}  // namespace sqloop::dbc
