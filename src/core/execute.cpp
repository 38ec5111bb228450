#include "core/execute.h"

#include "common/error.h"
#include "common/logging.h"
#include "core/analysis.h"
#include "core/parallel.h"
#include "core/round_loop.h"
#include "core/schema_infer.h"
#include "core/single_thread.h"
#include "core/translator.h"
#include "dbc/driver.h"
#include "telemetry/hooks.h"

namespace sqloop::core {
namespace {

dbc::ResultSet RunIterativeOnce(const std::string& url,
                                dbc::Connection& conn,
                                const sql::WithClause& with,
                                const SqloopOptions& effective,
                                const ExecutionContext& ctx) {
  RunStats& stats = ctx.stats;
  const ExecutionContext run_ctx{effective,    stats,      ctx.recorder,
                                 ctx.observer, ctx.gate,   ctx.shared_pool,
                                 ctx.cancel,   ctx.memory};
  // One master scope per attempt, shared by analysis-time probes and
  // whichever runner executes.
  ResilientConn master(conn, run_ctx);

  const auto fall_back = [&](const std::string& reason) {
    stats.fallback_reason = reason;
    if (ctx.observer != nullptr) ctx.observer->OnFallback(reason);
    return RunIterativeSingleThread(master, with, run_ctx);
  };

  if (effective.mode == ExecutionMode::kSingleThread) {
    stats.fallback_reason = "single-thread mode requested";
    return RunIterativeSingleThread(master, with, run_ctx);
  }

  // Automatic analysis (paper §V-A): parallelize when the iterative member
  // uses a supported aggregate and fits the partitionable shape.
  const CteAnalysis analysis = AnalyzeIterativeCte(with);
  if (!analysis.parallelizable) {
    SQLOOP_INFO("falling back to single-threaded execution: "
                << analysis.reason);
    return fall_back(analysis.reason);
  }

  const Translator translator = Translator::For(conn);
  auto schema = master.retrier().Run(conn, "setup", -1, [&] {
    return InferSchemaFromSelect(conn, translator, *with.seed, with.columns,
                                 /*widen_non_key=*/true);
  });
  if (schema.empty() || schema[0].type != ValueType::kInt64) {
    const std::string reason =
        "the key column is not integer-typed; hash partitioning on Rid "
        "requires integer keys";
    SQLOOP_INFO("falling back to single-threaded execution: " << reason);
    return fall_back(reason);
  }

  ParallelRunner runner(url, master, with, analysis, std::move(schema),
                        run_ctx);
  return runner.Run();
}

dbc::ResultSet RunIterative(const std::string& url, dbc::Connection& master,
                            const sql::WithClause& with,
                            const ExecutionContext& ctx) {
  // Durability defaults carried by the connection URL (checkpoint_every /
  // checkpoint_dir / checkpoint_keep / verify_checkpoints / scrub_every)
  // apply when the per-call options leave them unset, so a deployment can
  // turn on durability without touching call sites.
  SqloopOptions effective = ctx.options;
  try {
    const auto config = dbc::ConnectionConfig::Parse(url);
    if (effective.checkpoint_every == 0) {
      effective.checkpoint_every = config.checkpoint_every;
    }
    if (effective.checkpoint_dir.empty()) {
      effective.checkpoint_dir = config.checkpoint_dir;
    }
    if (effective.checkpoint_keep == 0) {
      effective.checkpoint_keep = config.checkpoint_keep;
    }
    if (!effective.verify_checkpoints) {
      effective.verify_checkpoints = config.verify_checkpoints;
    }
    if (effective.scrub_every == 0) {
      effective.scrub_every = config.scrub_every;
    }
  } catch (...) {
    // The URL already opened this run's connection; a re-parse failure
    // here only forfeits the URL defaults.
  }

  RunStats& stats = ctx.stats;

  // The repair ladder: corruption detected mid-job (a scrub mismatch, a
  // quarantined-table access) restarts the job from its newest valid
  // checkpoint instead of surfacing a wrong — or no — answer. Bounded
  // attempts; checkpoints written before the corrupt round still validate,
  // so the retried run resumes bit-identically from pre-corruption state
  // (or from scratch when no checkpoint survives, which is still correct).
  constexpr int kMaxRepairAttempts = 3;
  for (int attempt = 0;; ++attempt) {
    try {
      dbc::ResultSet result =
          RunIterativeOnce(url, master, with, effective, ctx);
      if (stats.resumed_from_round > 0) {
        SQLOOP_COUNT(ctx.recorder, "durability.crash_points_survived", 1);
      }
      return result;
    } catch (const IntegrityError& e) {
      if (!effective.scrub_repair || attempt + 1 >= kMaxRepairAttempts) {
        throw;
      }
      SQLOOP_INFO("integrity violation mid-job ("
                  << e.what() << "); repairing from the newest valid "
                  << "checkpoint (attempt " << attempt + 1 << ")");
      effective.resume = true;
      ++stats.integrity_repairs;
      SQLOOP_COUNT(ctx.recorder, "durability.integrity_repairs", 1);
    }
  }
}

}  // namespace

bool NeedsIterativeRun(const sql::Statement& stmt,
                       const dbc::Connection& conn) {
  if (stmt.kind != sql::StatementKind::kWith) return false;
  switch (stmt.with.kind) {
    case sql::CteKind::kPlain:
      return false;
    case sql::CteKind::kRecursive:
      return !conn.profile().supports_recursive_cte;
    case sql::CteKind::kIterative:
      return true;
  }
  return false;
}

dbc::ResultSet RunStatement(const std::string& url, dbc::Connection& master,
                            const sql::Statement& stmt,
                            const ExecutionContext& ctx) {
  const Translator translator = Translator::For(master);

  if (stmt.kind != sql::StatementKind::kWith) {
    // Regular SQL: rewritten by the translation module for the target
    // dialect and forwarded as-is (paper §IV-B).
    return master.Execute(translator.Render(stmt));
  }

  switch (stmt.with.kind) {
    case sql::CteKind::kPlain:
      return master.Execute(translator.Render(stmt));
    case sql::CteKind::kRecursive: {
      if (master.profile().supports_recursive_cte) {
        return master.Execute(translator.Render(stmt));
      }
      SQLOOP_INFO("engine '" << master.profile().name
                             << "' lacks recursive CTEs; emulating");
      return RunRecursiveEmulated(master, stmt.with, ctx);
    }
    case sql::CteKind::kIterative:
      return RunIterative(url, master, stmt.with, ctx);
  }
  throw UsageError("unknown CTE kind");
}

}  // namespace sqloop::core
