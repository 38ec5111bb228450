// The single-threaded executors (paper §IV-B):
//  * iterative CTEs via the R / Rtmp update loop with Table I termination,
//  * recursive CTEs emulated with client-driven semi-naive evaluation for
//    engines that lack WITH RECURSIVE (MySQL 5.7).
// Both record one telemetry IterationStats entry per round and fire the
// ExecutionContext's observer at round boundaries.
#pragma once

#include "core/observer.h"
#include "core/options.h"
#include "core/round_loop.h"
#include "dbc/connection.h"
#include "sql/ast.h"

namespace sqloop::core {

/// Runs an iterative CTE on `master`'s connection without partitioning;
/// the round border is the shared RoundLoop, the step one merge.
dbc::ResultSet RunIterativeSingleThread(ResilientConn& master,
                                        const sql::WithClause& with,
                                        const ExecutionContext& ctx);

/// Client-side semi-naive evaluation of a recursive CTE through plain SQL
/// (used when the engine cannot evaluate WITH RECURSIVE itself).
dbc::ResultSet RunRecursiveEmulated(dbc::Connection& connection,
                                    const sql::WithClause& with,
                                    const ExecutionContext& ctx);

}  // namespace sqloop::core
