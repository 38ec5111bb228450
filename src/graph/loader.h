// Loads a Graph into a database's `edges(src, dst, weight)` table through
// a dbc connection — the "data already lives in the RDBMS" premise of the
// paper. Binds its rows into prepared multi-row INSERTs, several per
// round trip.
#pragma once

#include <string>

#include "dbc/connection.h"
#include "graph/graph.h"

namespace sqloop::graph {

struct LoadOptions {
  std::string table_name = "edges";
  size_t batch_size = 500;  // rows per INSERT statement
  bool create_indexes = true;  // src and dst indexes (paper §V-C uses them)
  bool drop_existing = true;
};

/// Creates (or replaces) the edges table and bulk-loads the graph.
/// Emits engine-appropriate DDL via the connection's dialect.
void LoadEdges(dbc::Connection& connection, const Graph& graph,
               const LoadOptions& options = {});

}  // namespace sqloop::graph
