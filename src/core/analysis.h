// Query analysis (paper §V-A): decides whether an iterative CTE can be
// parallelized, and extracts the pieces the parallel engine needs — the
// supported aggregate, the self-join, and the Ridelta column.
//
// The canonical parallelizable shape (both paper examples fit it):
//
//   SELECT R.key,                          -- the Rid column, echoed back
//          <expr over R columns>, ...      -- "own" columns (rank, distance)
//          <Outer(AGG(arg over Self/Mid))> -- the Ridelta column
//   FROM R
//     LEFT JOIN <mid> AS M ON R.key = M.<to_key>
//     LEFT JOIN R AS Self ON Self.key = M.<from_key>
//   [WHERE <predicate over Self/M columns>]
//   GROUP BY R.key
//
// Anything else falls back to the single-threaded executor with a recorded
// reason (the paper does the same: unsupported aggregates run the §IV-B
// path).
#pragma once

#include <string>
#include <vector>

#include "sql/ast.h"

namespace sqloop::core {

struct CteAnalysis {
  bool parallelizable = false;
  std::string reason;  // set when not parallelizable

  // CTE basics.
  std::string cte_name;
  std::vector<std::string> columns;  // declared column names (folded)
  std::string key_column;            // columns[0] — the Rid assumption §III-A

  // Aggregate (paper's whitelist: SUM MIN MAX COUNT AVG).
  sql::AggFunc aggregate = sql::AggFunc::kSum;
  bool has_aggregate = false;

  // Join structure.
  std::string primary_alias;    // first reference of R in Ri's FROM
  std::string self_alias;       // second reference of R (the self-join)
  std::string mid_table;        // the relation bridging them (e.g. edges)
  std::string mid_alias;
  std::string mid_to_key;       // mid column joined to R.key   (e.g. dst)
  std::string mid_from_key;     // mid column joined to Self.key (e.g. src)
  std::vector<std::string> mid_columns_used;  // mid columns Ri references

  // The Ridelta column (paper §V-A "columns that exchange information").
  int delta_column_index = -1;       // position in `columns`
  std::string delta_column;          // its name
  const sql::Expr* delta_expr = nullptr;  // Outer(AGG(arg)) — borrowed
  const sql::Expr* where = nullptr;       // Ri's WHERE — borrowed

  // "Own" columns updated from the partition's own rows only.
  struct OwnColumn {
    int column_index = -1;
    std::string name;
    const sql::Expr* expr = nullptr;  // borrowed from the CTE AST
  };
  std::vector<OwnColumn> own_columns;

  /// Whether a Compute of a partition no Gather changed since its last
  /// Compute is a no-op, so the parallel runner may skip it. Holds for MIN
  /// and MAX only: their deltas are never reset and only changed rows are
  /// sent, and every own-column update is idempotent on an unchanged
  /// delta — LEAST(own, delta) under MIN, GREATEST(own, delta) under MAX,
  /// or an expression that reads no own column. (SUM/AVG reset the delta
  /// every Compute; `R.steps + 1` changes on every Compute.)
  bool skip_clean_computes = false;
};

/// Analyzes the iterative CTE. Never throws for "merely unsupported"
/// shapes — those return parallelizable=false with a reason. Throws
/// AnalysisError only for malformed CTEs (no columns, no step).
CteAnalysis AnalyzeIterativeCte(const sql::WithClause& with);

}  // namespace sqloop::core
