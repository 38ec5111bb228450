#include "core/sqloop.h"

#include "common/error.h"
#include "common/memory_tracker.h"
#include "core/execute.h"
#include "core/translator.h"
#include "dbc/driver.h"
#include "server/job_server.h"
#include "sql/parser.h"

namespace sqloop::core {

const char* ExecutionModeName(ExecutionMode mode) noexcept {
  switch (mode) {
    case ExecutionMode::kSingleThread:
      return "single-thread";
    case ExecutionMode::kSync:
      return "sync";
    case ExecutionMode::kAsync:
      return "async";
    case ExecutionMode::kAsyncPriority:
      return "async-priority";
  }
  return "?";
}

SqLoop::SqLoop(std::string url, SqloopOptions options)
    : url_(std::move(url)),
      options_(options),
      master_(dbc::DriverManager::GetConnection(url_)) {}

SqLoop::~SqLoop() = default;

dbc::ResultSet SqLoop::Execute(const std::string& sql) {
  return Execute(sql, options_);
}

dbc::ResultSet SqLoop::Execute(const std::string& sql,
                               const SqloopOptions& options) {
  const auto stmt = sql::ParseStatement(sql);
  return ExecuteStatement(*stmt, options);
}

dbc::ResultSet SqLoop::ExecuteScript(const std::string& script) {
  const auto statements = sql::ParseScript(script);
  dbc::ResultSet last;
  for (const auto& stmt : statements) {
    last = ExecuteStatement(*stmt, options_);
  }
  return last;
}

server::JobServer& SqLoop::job_server() {
  if (server_ == nullptr) {
    // Embedded single-job configuration: one dispatcher, no shared pool
    // (each run builds its private pool exactly like a standalone run) and
    // no derived seeds — legacy single-job behaviour and fault schedules
    // stay bit-identical to the pre-service facade. Every facade job runs
    // on the lent master connection, so the server's connection pool is
    // never consulted and connection accounting is the caller's.
    server::JobServerConfig config;
    config.url = url_;
    config.share_worker_pool = false;
    config.max_running_jobs = 1;
    config.max_active_rounds = 0;
    config.queue_capacity = 64;
    config.max_inflight_per_tenant = 64;
    config.derive_seeds = false;
    server_ = std::make_unique<server::JobServer>(std::move(config));
  }
  return *server_;
}

dbc::ResultSet SqLoop::ExecuteStatement(const sql::Statement& stmt,
                                        const SqloopOptions& options) {
  if (!NeedsIterativeRun(stmt, *master_)) {
    // Regular SQL (and natively supported CTEs) stays on this instance's
    // own master connection — inside its transaction, if one is open.
    // The facade-level governance knobs still apply: a statement budget
    // wraps the connection's active tracker for exactly this statement.
    struct GovernanceGuard {
      dbc::Connection& conn;
      MemoryTracker* saved_tracker;
      int64_t saved_check_rows;
      ~GovernanceGuard() {
        conn.set_memory_tracker(saved_tracker);
        conn.set_cancel_check_rows(saved_check_rows);
      }
    } guard{*master_, master_->active_memory_tracker(),
            master_->cancel_check_rows()};
    MemoryTracker statement_budget("statement", guard.saved_tracker,
                                   options.memory_limit_bytes);
    if (options.memory_limit_bytes > 0) {
      master_->set_memory_tracker(&statement_budget);
    }
    if (options.cancel_check_rows > 0) {
      master_->set_cancel_check_rows(options.cancel_check_rows);
    }
    const Translator translator = Translator::For(*master_);
    return master_->Execute(translator.Render(stmt));
  }
  return ExecuteViaServer(stmt, options);
}

dbc::ResultSet SqLoop::ExecuteViaServer(const sql::Statement& stmt,
                                        const SqloopOptions& options) {
  // The facade lends its master connection: the run executes on it (same
  // transaction state, same connection accounting as the pre-service
  // facade), and the synchronous WaitDone below keeps the lifetimes safe.
  server::JobHandle job = job_server().SubmitParsed(
      "local", stmt.Clone(), /*sql_text=*/"", options, observer_,
      /*url_params=*/"", master_.get());
  job.WaitDone();
  // Adopt the job's stats whether it succeeded or not: a failed run's
  // partial counters (retries, checkpoints written before a crash) still
  // tell the story, exactly as the pre-service facade reported them.
  stats_ = job.Stats();
  return job.Wait();  // returns the result or rethrows the job's error
}

}  // namespace sqloop::core
