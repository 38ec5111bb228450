// Expression evaluation over in-flight relations, with SQL NULL semantics
// (three-valued logic, NULL-propagating arithmetic) and the aggregate
// accumulators for SUM / MIN / MAX / COUNT / AVG.
#pragma once

#include <unordered_set>
#include <utility>
#include <vector>

#include "minidb/schema.h"
#include "sql/ast.h"

namespace sqloop::minidb {

/// Where a column of an intermediate relation came from: `qualifier` is the
/// table alias (folded), `name` the column name (folded).
struct ColumnBinding {
  std::string qualifier;
  std::string name;
};

/// An intermediate relation flowing between operators, in one of two
/// storage modes:
///   * owned    — `rows` holds materialized copies (the classic form, and
///     always the form of operator *outputs*: projection and aggregation
///     construct fresh rows);
///   * borrowed — `views` holds pointers into Table storage (zero-copy
///     scans). Views are valid while the executing statement holds the
///     table's lock *and* the table's row vector is not grown: the
///     executor guarantees the latter by materializing every INSERT source
///     before inserting and by applying UPDATE writes (in-place slot
///     assignment, never a reallocation of the row vector) only after all
///     matching reads have finished.
/// Consumers iterate with row_count()/row(), which work in either mode.
struct Relation {
  std::vector<ColumnBinding> columns;
  std::vector<Row> rows;          // owned storage (empty in borrowed mode)
  std::vector<const Row*> views;  // borrowed row views (borrowed mode only)
  bool borrowed = false;

  size_t row_count() const noexcept {
    return borrowed ? views.size() : rows.size();
  }
  const Row& row(size_t i) const noexcept {
    return borrowed ? *views[i] : rows[i];
  }

  /// Deep-copies borrowed views into owned rows; no-op when already owned.
  void Materialize();
};

/// Memoizes column-reference lookups per expression node against one
/// binding list, so hot loops skip ResolveColumn's string compares. A loop
/// evaluates a handful of column references, so a flat vector searched
/// front to back beats hashing the node pointer.
class ResolutionMemo {
 public:
  /// The memoized column index of `expr`, or -1.
  int Find(const sql::Expr* expr) const noexcept {
    for (const auto& [node, index] : entries_) {
      if (node == expr) return index;
    }
    return -1;
  }
  void Add(const sql::Expr* expr, int index) {
    entries_.emplace_back(expr, index);
  }

 private:
  std::vector<std::pair<const sql::Expr*, int>> entries_;
};

/// Evaluation context: the current row inside a relation, plus (during
/// aggregate projection) the values computed for each aggregate
/// sub-expression of the SELECT list. `resolution_cache`, when set,
/// memoizes column lookups across the rows of one loop.
struct EvalContext {
  const std::vector<ColumnBinding>* columns = nullptr;
  const Row* row = nullptr;
  const std::vector<const sql::Expr*>* agg_exprs = nullptr;
  const std::vector<Value>* agg_values = nullptr;
  ResolutionMemo* resolution_cache = nullptr;
};

/// Evaluates `expr` in `ctx`. Throws AnalysisError for unresolved or
/// ambiguous columns and ExecutionError for runtime type errors.
Value Evaluate(const sql::Expr& expr, const EvalContext& ctx);

/// True when the value counts as satisfied in a WHERE/HAVING/ON position
/// (non-NULL and numerically non-zero).
bool Truthy(const Value& v);

/// Resolves a column reference against a binding list. Returns the column
/// index; throws AnalysisError if missing or ambiguous.
int ResolveColumn(const std::vector<ColumnBinding>& columns,
                  const std::string& qualifier, const std::string& name);

/// Same, but returns -1 instead of throwing when the column is absent
/// (still throws on ambiguity).
int TryResolveColumn(const std::vector<ColumnBinding>& columns,
                     const std::string& qualifier, const std::string& name);

/// True if every column reference in `expr` resolves in `columns`.
bool AllColumnsResolve(const sql::Expr& expr,
                       const std::vector<ColumnBinding>& columns);

/// Streaming accumulator for one aggregate function.
class Accumulator {
 public:
  Accumulator(sql::AggFunc func, bool distinct);

  /// Feeds one input value (ignored when NULL, per SQL).
  void Add(const Value& v);

  // --- vectorized bulk feeds (batch pipeline; see minidb/batch.h) -------
  // Dense non-NULL payload spans gathered from one batch's selected lanes,
  // fed in lane order so every state transition (including double rounding
  // and the running MIN/MAX with Value::Compare's NaN handling) matches the
  // equivalent sequence of Add() calls exactly. Callers must not use these
  // on DISTINCT accumulators — the dedup set needs Value keys, so DISTINCT
  // aggregates stay on the scalar Add() path.

  /// Bulk-adds int64 payloads (int64 column lanes).
  void AddInt64Span(const int64_t* values, size_t count);
  /// Bulk-adds double payloads (double column lanes).
  void AddDoubleSpan(const double* values, size_t count);
  /// Bulk-adds borrowed text payloads (text column lanes); only valid for
  /// COUNT/MIN/MAX (SUM/AVG over text throws, exactly like Add()).
  void AddTextSpan(const std::string* const* values, size_t count);
  /// COUNT(*) bulk feed: `count` accepted rows. Only valid for a
  /// non-DISTINCT COUNT.
  void AddCountedRows(int64_t count);

  Value Result() const;

 private:
  bool ShouldSkipDuplicate(const Value& v);

  sql::AggFunc func_;
  bool distinct_;
  std::unordered_set<Value, ValueKeyHash, ValueKeyEq> seen_;

  int64_t value_count_ = 0;  // accepted (non-NULL, non-duplicate) inputs
  int64_t int_sum_ = 0;
  double double_sum_ = 0;
  bool saw_double_ = false;
  Value extreme_;           // running MIN/MAX
};

/// Collects the distinct aggregate sub-expressions (by structural equality)
/// appearing in `expr` into `out`.
void CollectAggregates(const sql::Expr& expr,
                       std::vector<const sql::Expr*>& out);

/// True if `expr` contains any aggregate function call.
bool ContainsAggregate(const sql::Expr& expr);

}  // namespace sqloop::minidb
