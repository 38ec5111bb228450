#include "graph/loader.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dbc/prepared_statement.h"
#include "sql/printer.h"

namespace sqloop::graph {

void LoadEdges(dbc::Connection& connection, const Graph& graph,
               const LoadOptions& options) {
  const Dialect dialect = connection.dialect();

  if (options.drop_existing) {
    connection.Execute("DROP TABLE IF EXISTS " +
                       sql::QuoteIdentifier(options.table_name, dialect));
  }

  // Engine-appropriate DDL: UNLOGGED on postgres, ENGINE=MyISAM on the
  // MySQL family (the paper's §VI-A configuration for both).
  sql::Statement create;
  create.kind = sql::StatementKind::kCreateTable;
  create.table_name = options.table_name;
  create.columns = {{"src", ValueType::kInt64, "BIGINT"},
                    {"dst", ValueType::kInt64, "BIGINT"},
                    {"weight", ValueType::kDouble, ""}};
  create.unlogged = true;
  connection.Execute(sql::PrintStatement(create, dialect));

  // Rows are bound, never spelled as literals: one prepared multi-row
  // INSERT carries every full statement, one more the remainder, so a load
  // compiles at most two INSERT texts and stores each weight bit for bit.
  constexpr size_t kStatementsPerBatch = 8;
  const size_t rows_per_statement = std::max<size_t>(options.batch_size, 1);
  const std::vector<Edge>& edges = graph.edges();
  std::optional<dbc::PreparedStatement> insert;
  for (size_t begin = 0; begin < edges.size(); begin += rows_per_statement) {
    const size_t rows = std::min(rows_per_statement, edges.size() - begin);
    if (!insert || insert->parameter_count() != static_cast<int>(3 * rows)) {
      if (insert && insert->batch_size() > 0) insert->ExecuteBatch();
      std::string sql = "INSERT INTO " +
                        sql::QuoteIdentifier(options.table_name, dialect) +
                        " VALUES (?, ?, ?)";
      for (size_t i = 1; i < rows; ++i) sql += ", (?, ?, ?)";
      insert = connection.Prepare(std::move(sql));
    }
    for (size_t i = 0; i < rows; ++i) {
      const Edge& edge = edges[begin + i];
      const int slot = static_cast<int>(3 * i);
      insert->SetInt64(slot + 1, edge.src);
      insert->SetInt64(slot + 2, edge.dst);
      insert->SetDouble(slot + 3, edge.weight);
    }
    insert->AddBatch();
    if (insert->batch_size() >= kStatementsPerBatch) insert->ExecuteBatch();
  }
  if (insert && insert->batch_size() > 0) insert->ExecuteBatch();

  if (options.create_indexes) {
    connection.Execute("CREATE INDEX " +
                       sql::QuoteIdentifier(options.table_name + "_src",
                                            dialect) +
                       " ON " +
                       sql::QuoteIdentifier(options.table_name, dialect) +
                       " (src)");
    connection.Execute("CREATE INDEX " +
                       sql::QuoteIdentifier(options.table_name + "_dst",
                                            dialect) +
                       " ON " +
                       sql::QuoteIdentifier(options.table_name, dialect) +
                       " (dst)");
  }
}

}  // namespace sqloop::graph
