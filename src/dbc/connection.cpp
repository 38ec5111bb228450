#include "dbc/connection.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.h"
#include "sql/parser.h"
#include "telemetry/hooks.h"

namespace sqloop::dbc {

Connection::Connection(std::shared_ptr<minidb::Database> db,
                       int64_t latency_us, int64_t row_cost_ns,
                       std::shared_ptr<FaultInjector> fault_injector,
                       int64_t compile_us, int64_t memory_limit_bytes,
                       int64_t cancel_check_rows)
    : db_(std::move(db)),
      executor_(*db_),
      tracker_("connection", &db_->memory_tracker(), memory_limit_bytes),
      latency_us_(latency_us),
      row_cost_ns_(row_cost_ns),
      compile_us_(compile_us),
      fault_(std::move(fault_injector)) {
  // Accounting A/B ablation (bench/micro_governance): a database with
  // governance disabled hands its connections no tracker at all, so the
  // engine's charge hooks cost one null check per flush.
  if (db_->governance_enabled()) {
    executor_.set_memory_tracker(&tracker_);
  }
  if (cancel_check_rows > 0) {
    executor_.set_cancel_check_rows(cancel_check_rows);
  }
  db_->OnConnectionOpened();
}

Connection::~Connection() {
  if (!closed_) {
    try {
      Close();
    } catch (...) {
      // Destructors must not throw; an implicit rollback failure on close
      // leaves the database as-is.
    }
  }
}

void Connection::set_recorder(telemetry::Recorder* recorder) noexcept {
  recorder_ = recorder;
  // The embedded engine attributes server-side costs (rows examined,
  // lock waits) to the same recorder.
  executor_.set_recorder(recorder);
}

void Connection::PayRoundTrip() {
  ++stats_.round_trips;
  SQLOOP_COUNT(recorder_, "dbc.round_trips", 1);
  if (latency_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(latency_us_));
  }
}

void Connection::PayServerWork(size_t rows_examined) {
  if (row_cost_ns_ <= 0 || rows_examined == 0) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      row_cost_ns_ * static_cast<int64_t>(rows_examined)));
}

void Connection::PayCompile(size_t statements) {
  if (compile_us_ <= 0 || statements == 0) return;
  SQLOOP_COUNT(recorder_, "dbc.server_compiles", statements);
  std::this_thread::sleep_for(std::chrono::microseconds(
      compile_us_ * static_cast<int64_t>(statements)));
}

void Connection::EnsureOpen() const {
  if (closed_) throw ConnectionError("connection is closed");
}

void Connection::DropNow() {
  // A real network drop aborts the server-side session: any open
  // transaction is rolled back by the engine, and the client handle is
  // dead from here on.
  if (in_explicit_txn_ || session_.in_transaction()) {
    // Covers both driver-managed transactions (autocommit off) and a raw
    // BEGIN the caller sent as SQL.
    executor_.ExecuteSql("ROLLBACK", &session_);
    in_explicit_txn_ = false;
  }
  closed_ = true;
  db_->OnConnectionClosed();
}

void Connection::ThrowIfCancelled() const {
  if (token_ != nullptr) token_->ThrowIfRequested();
}

void Connection::ArmStatementDeadline() {
  if (statement_timeout_ms_ > 0) {
    executor_.set_statement_deadline(
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(statement_timeout_ms_));
  }
}

void Connection::InterruptibleSleep(int64_t delay_us) const {
  // 1ms slices: an injected slow statement reacts to a cancel request
  // within a millisecond instead of serving out the whole delay.
  constexpr int64_t kSliceUs = 1000;
  while (delay_us > 0) {
    ThrowIfCancelled();
    const int64_t slice = std::min(delay_us, kSliceUs);
    std::this_thread::sleep_for(std::chrono::microseconds(slice));
    delay_us -= slice;
  }
  ThrowIfCancelled();
}

void Connection::MaybeInjectFault() {
  if (!fault_) return;
  switch (fault_->NextStatementFault()) {
    case FaultKind::kNone:
    case FaultKind::kLostReply:  // decided after the engine, not here
      return;
    case FaultKind::kDrop:
      DropNow();
      throw ConnectionLostError("injected connection drop");
    case FaultKind::kTransient:
      throw TransientError("injected transient engine fault");
    case FaultKind::kSlow: {
      const int64_t delay_us = fault_->slow_us();
      if (statement_timeout_ms_ > 0 &&
          delay_us >= statement_timeout_ms_ * 1000) {
        // The statement would miss its deadline: the client gives up at
        // the deadline and the engine never applies the statement.
        InterruptibleSleep(statement_timeout_ms_ * 1000);
        throw TimeoutError("statement exceeded " +
                           std::to_string(statement_timeout_ms_) +
                           "ms deadline");
      }
      InterruptibleSleep(delay_us);
      return;
    }
  }
}

void Connection::Reopen() {
  if (!closed_) return;
  if (fault_ && fault_->ShouldFailConnect()) {
    throw ConnectionLostError("injected reconnect failure");
  }
  closed_ = false;
  in_explicit_txn_ = false;
  db_->OnConnectionOpened();
  PayRoundTrip();  // the reconnect handshake costs one round trip
}

void Connection::EnsureTransactionIfNeeded() {
  // JDBC: with autocommit off, a transaction is implicitly opened by the
  // first statement and stays open until commit()/rollback().
  if (!autocommit_ && !in_explicit_txn_) {
    executor_.ExecuteSql("BEGIN", &session_);
    in_explicit_txn_ = true;
  }
}

ResultSet Connection::Execute(std::string_view sql) {
  EnsureOpen();
  ThrowIfCancelled();
  // Faults fire before the engine sees the statement (see fault.h): a
  // failure here is client-visible but leaves server state untouched, so
  // the caller may safely retry.
  MaybeInjectFault();
  // A cancel that landed during an injected stall stops the statement
  // before it reaches the engine; past here the token keeps preempting
  // inside the engine.
  ThrowIfCancelled();
  PayRoundTrip();
  ++stats_.statements;
  SQLOOP_COUNT(recorder_, "dbc.statements", 1);
  EnsureTransactionIfNeeded();
  ArmStatementDeadline();
  ResultSet result;
  try {
    result = executor_.ExecuteSql(sql, &session_);
  } catch (...) {
    // A stale armed deadline must not leak into later statements (the
    // implicit ROLLBACK on Close would spuriously time out).
    executor_.clear_statement_deadline();
    throw;
  }
  executor_.clear_statement_deadline();
  if (result.compiled) PayCompile();
  PayServerWork(result.rows_examined);
  return result;
}

size_t Connection::ExecuteUpdate(std::string_view sql) {
  return Execute(sql).affected_rows;
}

void Connection::AddBatch(std::string sql) {
  EnsureOpen();
  batch_.push_back(std::move(sql));
}

std::vector<size_t> Connection::ExecuteBatch() {
  EnsureOpen();
  ThrowIfCancelled();
  // One injection decision for the whole batch: it ships as a single
  // submission, so a fault strikes before ANY queued statement executes.
  // The queued batch is preserved on failure for resubmission.
  MaybeInjectFault();
  // Cancellation must not strike between a batch's statements (the whole
  // batch is the retry unit), so this is its only post-injection check.
  ThrowIfCancelled();
  PayRoundTrip();  // the whole batch ships in one round trip
  SQLOOP_COUNT(recorder_, "dbc.batches", 1);
  SQLOOP_COUNT(recorder_, "dbc.batch_statements", batch_.size());
  EnsureTransactionIfNeeded();
  // No mid-statement deadline inside a batch: a transient TimeoutError
  // striking after a prefix of the batch applied would make the retrier
  // resubmit — and double-apply — that prefix. The deadline stays at the
  // injection point for batches. The governance token still preempts
  // mid-batch: cancel and quota errors are fatal, so no retry ever
  // resubmits the prefix.
  std::vector<size_t> affected;
  affected.reserve(batch_.size());
  size_t rows_examined = 0;
  size_t compiles = 0;
  for (const std::string& sql : batch_) {
    ++stats_.statements;
    SQLOOP_COUNT(recorder_, "dbc.statements", 1);
    ResultSet result = executor_.ExecuteSql(sql, &session_);
    rows_examined += result.rows_examined;
    if (result.compiled) ++compiles;
    affected.push_back(result.affected_rows);
  }
  batch_.clear();
  PayCompile(compiles);
  PayServerWork(rows_examined);
  return affected;
}

void Connection::SetAutoCommit(bool autocommit) {
  EnsureOpen();
  if (autocommit && in_explicit_txn_) Commit();
  autocommit_ = autocommit;
}

void Connection::Commit() {
  EnsureOpen();
  if (in_explicit_txn_) {
    PayRoundTrip();
    executor_.ExecuteSql("COMMIT", &session_);
    in_explicit_txn_ = false;
  }
}

void Connection::Rollback() {
  EnsureOpen();
  if (in_explicit_txn_) {
    PayRoundTrip();
    executor_.ExecuteSql("ROLLBACK", &session_);
    in_explicit_txn_ = false;
  }
}

void Connection::Close() {
  if (closed_) return;
  if (in_explicit_txn_ || session_.in_transaction()) {
    // JDBC drivers roll back uncommitted work on close — whether the
    // transaction came from autocommit(false) or a raw BEGIN statement.
    executor_.ExecuteSql("ROLLBACK", &session_);
    in_explicit_txn_ = false;
  }
  closed_ = true;
  db_->OnConnectionClosed();
}

}  // namespace sqloop::dbc
