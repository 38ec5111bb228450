#include "core/script_gen.h"

#include "common/error.h"
#include "common/stopwatch.h"
#include "core/round_loop.h"
#include "core/schema_infer.h"
#include "core/termination.h"
#include "core/translator.h"
#include "minidb/schema.h"
#include "sql/printer.h"

namespace sqloop::core {
namespace {

using minidb::FoldIdentifier;

struct ScriptPieces {
  std::string table;
  std::string tmp;
  std::vector<std::string> setup;
  std::vector<std::string> per_iteration;
  std::string final_query;
  std::vector<std::string> teardown;
};

ScriptPieces BuildPieces(const sql::WithClause& with,
                         const Translator& translator,
                         const std::vector<sql::ColumnDef>& schema) {
  ScriptPieces pieces;
  pieces.table = FoldIdentifier(with.name);
  pieces.tmp = pieces.table + "_tmp";

  pieces.setup = {
      translator.DropTableSql(pieces.table),
      translator.DropTableSql(pieces.tmp),
      translator.CreateTableSql(pieces.table, schema, 0),
      "INSERT INTO " + translator.Quote(pieces.table) + " " +
          translator.Render(*with.seed),
  };

  // The per-iteration block a user would write by hand: materialize Ri,
  // merge it back by key, throw the scratch table away.
  std::string merge = "UPDATE " + translator.Quote(pieces.table) + " SET ";
  for (size_t i = 1; i < schema.size(); ++i) {
    if (i > 1) merge += ", ";
    merge += translator.Quote(schema[i].name) + " = t." +
             translator.Quote(schema[i].name);
  }
  merge += " FROM " + translator.Quote(pieces.tmp) + " AS t WHERE " +
           translator.Quote(pieces.table) + "." +
           translator.Quote(schema[0].name) + " = t." +
           translator.Quote(schema[0].name);

  pieces.per_iteration = {
      translator.CreateTableSql(pieces.tmp, schema, 0),
      "INSERT INTO " + translator.Quote(pieces.tmp) + " " +
          translator.Render(*with.step),
      merge,
      translator.DropTableSql(pieces.tmp),
  };

  pieces.final_query = translator.Render(*with.final_query);
  pieces.teardown = {translator.DropTableSql(pieces.table)};
  return pieces;
}

}  // namespace

std::string GenerateIterativeScript(const sql::WithClause& with,
                                    Dialect dialect, int64_t iterations) {
  // Script generation needs only declared names, not sampled types; the
  // rendering below uses DOUBLE for the value columns exactly as a user
  // targeting these workloads would.
  if (with.columns.empty()) {
    throw AnalysisError("script generation requires a CTE column list");
  }
  std::vector<sql::ColumnDef> schema;
  for (size_t i = 0; i < with.columns.size(); ++i) {
    schema.push_back({FoldIdentifier(with.columns[i]),
                      i == 0 ? ValueType::kInt64 : ValueType::kDouble, ""});
  }
  const Translator translator(dialect);
  const ScriptPieces pieces = BuildPieces(with, translator, schema);

  std::string script;
  script += "-- SQL script equivalent of iterative CTE '" + with.name +
            "' (generated; " + std::string(DialectName(dialect)) +
            " dialect)\n";
  for (const auto& sql : pieces.setup) script += sql + ";\n";
  for (int64_t i = 1; i <= iterations; ++i) {
    script += "-- iteration " + std::to_string(i) + "\n";
    for (const auto& sql : pieces.per_iteration) script += sql + ";\n";
  }
  script += "-- final result\n" + pieces.final_query + ";\n";
  for (const auto& sql : pieces.teardown) script += sql + ";\n";
  return script;
}

dbc::ResultSet RunScriptBaseline(dbc::Connection& connection,
                                 const sql::WithClause& with,
                                 const SqloopOptions& options,
                                 RunStats& stats) {
  const Stopwatch watch;
  const Translator translator = Translator::For(connection);
  const auto schema = InferSchemaFromSelect(connection, translator,
                                            *with.seed, with.columns,
                                            /*widen_non_key=*/true);
  const ScriptPieces pieces = BuildPieces(with, translator, schema);
  const TerminationChecker checker(with.termination, translator,
                                   pieces.table);

  for (const auto& sql : pieces.setup) connection.Execute(sql);

  for (int64_t iteration = 1;; ++iteration) {
    if (checker.needs_delta_snapshot()) {
      for (const auto& sql : checker.SnapshotSql(schema)) {
        connection.Execute(sql);
      }
    }
    uint64_t updates = 0;
    for (size_t s = 0; s < pieces.per_iteration.size(); ++s) {
      const size_t affected =
          connection.ExecuteUpdate(pieces.per_iteration[s]);
      if (s == 2) updates = affected;  // the merge statement
    }
    stats.iterations = iteration;
    stats.total_updates += updates;
    if (checker.Satisfied(connection, iteration, updates)) break;
    EnforceIterationGuard(options, with.name, iteration);
  }

  dbc::ResultSet result = connection.ExecuteQuery(pieces.final_query);
  if (!options.keep_result_tables) {
    for (const auto& sql : pieces.teardown) connection.Execute(sql);
    connection.Execute(translator.DropTableSql(checker.delta_table()));
  }
  stats.mode_used = ExecutionMode::kSingleThread;
  stats.fallback_reason = "hand-written SQL script baseline";
  stats.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace sqloop::core
