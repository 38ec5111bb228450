// The batched data plane of the SELECT engine: fixed-capacity
// row batches with a selection vector, dense typed buffers for aggregate
// feeds, and compiled predicate kernels that shrink the selection in tight
// per-column loops reading cells straight from the borrowed row views.
//
// Correctness contract (see DESIGN.md "The SELECT engine"): a kernel is
// only compiled for conjunct shapes that can never throw for ANY stored row
// given the table schema — Schema::CoerceRow guarantees every stored cell is
// schema-typed or NULL, so a numeric-column-vs-numeric-literal comparison is
// total. Shapes that could raise a per-row type error (mixed type families,
// complex expressions) do not compile; the caller evaluates them per lane,
// which reproduces the reference pipeline's per-row errors.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "minidb/schema.h"
#include "sql/ast.h"

namespace sqloop::minidb {

/// A fixed-capacity block of borrowed row views plus the selection vector
/// naming the lanes still alive after predicate evaluation. Views obey the
/// same lifetime rules as Relation's borrowed mode: valid while the
/// executing statement holds the table's lock and the row vector is not
/// grown.
struct RowBatch {
  static constexpr uint32_t kCapacity = 1024;

  std::array<const Row*, kCapacity> rows;
  uint32_t size = 0;  // filled lanes

  // Indices of surviving lanes, ascending (preserves scan order).
  std::array<uint32_t, kCapacity> selection;
  uint32_t selected = 0;

  void Reset() noexcept {
    size = 0;
    selected = 0;
  }
  /// Marks every filled lane selected (the state before any predicate).
  void SelectAll() noexcept {
    for (uint32_t i = 0; i < size; ++i) selection[i] = i;
    selected = size;
  }
  /// SelectAll without materializing the identity permutation. Only valid
  /// when the next consumer of a full selection is a compiled kernel:
  /// ApplyPredicateKernel treats `selected == size` as identity (never
  /// reading the array) and rewrites it in place. Anything that READS a
  /// full selection — the scalar-fallback intersection, downstream
  /// operators when no kernel runs — needs SelectAll.
  void MarkAllSelected() noexcept { selected = size; }
};

/// Consumes one filtered batch; mutable so downstream operators may shrink
/// the selection further.
using BatchSink = FunctionRef<void(RowBatch&)>;
/// Pushes batches into a sink exactly once. A producer finishes a batch's
/// WHERE conjuncts before the sink sees it.
using BatchSource = FunctionRef<void(const BatchSink&)>;

/// Dense typed buffers for feeding selected lanes of one column into the
/// aggregate span reductions (reused across batches). Text payloads are
/// borrowed pointers into Table storage (same lifetime as the row views).
struct ColumnVector {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<const std::string*> texts;
  std::vector<uint8_t> nulls;  // 1 = NULL
};

/// One compiled WHERE conjunct: a total (never-throwing) predicate applied
/// to a whole batch, shrinking the selection vector.
struct PredicateKernel {
  enum class Kind : uint8_t {
    kAlwaysMatch,     // truthy numeric literal conjunct
    kNeverMatch,      // NULL-involving comparison or falsy/NULL literal
    kIsNull,          // col IS NULL
    kIsNotNull,       // col IS NOT NULL
    kNumericLiteral,  // numeric col <op> numeric literal
    kTextLiteral,     // text col <op> text literal
    kNumericColumns,  // numeric col <op> numeric col
    kTextColumns,     // text col <op> text col
  };
  enum class Op : uint8_t { kEq, kNotEq, kLess, kLessEq, kGreater, kGreaterEq };

  Kind kind = Kind::kNeverMatch;
  Op op = Op::kEq;
  int column = -1;      // left column ordinal in the table schema
  int rhs_column = -1;  // right column ordinal (column-vs-column kinds)
  ValueType column_type = ValueType::kNull;
  ValueType rhs_type = ValueType::kNull;
  bool literal_is_int = false;
  int64_t literal_int = 0;
  double literal_double = 0;
  std::string literal_text;
};

/// Attempts to compile `conjunct` into a total kernel against `schema`
/// (column references must resolve in this single table, optionally
/// qualified by `alias`, already folded). Returns false when the shape or
/// its type pairing could throw at runtime — the caller keeps the conjunct
/// on the scalar path.
bool CompilePredicateKernel(const sql::Expr& conjunct, const Schema& schema,
                            const std::string& alias, PredicateKernel* out);

/// Applies a compiled kernel to `batch`, shrinking `batch.selection` (order
/// preserved). Cells are read once per surviving lane, straight from the
/// borrowed row views. Never throws.
void ApplyPredicateKernel(const PredicateKernel& kernel, RowBatch& batch);

}  // namespace sqloop::minidb
