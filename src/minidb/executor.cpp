#include "minidb/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>

#include "common/error.h"
#include "common/stopwatch.h"
#include "minidb/dump.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "telemetry/hooks.h"

namespace sqloop::minidb {
namespace {

// ---------------------------------------------------------------------------
// Lock management: all tables a statement touches are locked up front in
// name order (shared for reads, exclusive for writes). Sorted acquisition
// makes deadlock impossible; std::map keeps the order for us.
// ---------------------------------------------------------------------------

class LockSet {
 public:
  explicit LockSet(telemetry::Recorder* recorder = nullptr)
      : recorder_(recorder) {}
  LockSet(const LockSet&) = delete;
  LockSet& operator=(const LockSet&) = delete;

  void Request(std::shared_ptr<Table> table, bool write) {
    if (!table) return;
    const std::string name = table->name();
    auto [it, inserted] =
        entries_.try_emplace(name, Entry{std::move(table), write});
    if (!inserted) it->second.write |= write;
  }

  void AcquireAll() {
#if SQLOOP_TELEMETRY_ENABLED
    const Stopwatch watch;
#endif
    for (auto& [name, entry] : entries_) {
      if (entry.write) {
        entry.table->lock().lock();
      } else {
        entry.table->lock().lock_shared();
      }
      entry.locked = true;
    }
    SQLOOP_TIME_SECONDS(recorder_, "minidb.lock_wait_seconds",
                        watch.ElapsedSeconds());
    // Quarantine fence, checked once every lock is held: a table whose
    // scrub found corruption must never feed another statement a corrupt
    // row. The destructor releases whatever was acquired above.
    for (const auto& [name, entry] : entries_) {
      if (entry.table->quarantined()) {
        throw IntegrityError(
            "table '" + name +
            "' is quarantined after a failed integrity check; restore it "
            "from a valid dump or drop it");
      }
    }
  }

  ~LockSet() {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (!it->second.locked) continue;
      if (it->second.write) {
        it->second.table->lock().unlock();
      } else {
        it->second.table->lock().unlock_shared();
      }
    }
  }

 private:
  struct Entry {
    std::shared_ptr<Table> table;
    bool write = false;
    bool locked = false;
  };
  telemetry::Recorder* recorder_ = nullptr;
  std::map<std::string, Entry> entries_;
};

/// Walks statements collecting every base table referenced (views are
/// expanded to their underlying tables; CTE names are excluded).
class TableCollector {
 public:
  /// Cores in `skip` contribute no tables (they are answered without a
  /// scan, see Executor::FindEmptyCores).
  explicit TableCollector(
      const Database& db,
      const std::unordered_set<const sql::SelectCore*>* skip = nullptr)
      : db_(db), skip_(skip) {}

  void AddName(const std::string& raw_name,
               const std::set<std::string>& ctes) {
    const std::string name = FoldIdentifier(raw_name);
    if (ctes.contains(name)) return;
    if (const auto view = db_.FindView(name)) {
      if (visited_views_.insert(name).second) {
        FromSelect(*view, ctes);
      }
      return;
    }
    reads_.insert(name);
  }

  void FromTableRef(const sql::TableRef& ref,
                    const std::set<std::string>& ctes) {
    switch (ref.kind) {
      case sql::TableRefKind::kBase:
        AddName(ref.table_name, ctes);
        return;
      case sql::TableRefKind::kJoin:
        FromTableRef(*ref.left, ctes);
        FromTableRef(*ref.right, ctes);
        return;
      case sql::TableRefKind::kSubquery:
        FromSelect(*ref.subquery, ctes);
        return;
    }
  }

  void FromSelect(const sql::SelectStmt& stmt,
                  const std::set<std::string>& ctes) {
    for (const auto& core : stmt.cores) {
      if (skip_ != nullptr && skip_->contains(&core)) continue;
      if (core.from) FromTableRef(*core.from, ctes);
    }
  }

  bool Reads(const std::string& folded_name) const {
    return reads_.contains(folded_name);
  }

  /// Emits the collected names into a lock plan. `written` names (already
  /// folded) get exclusive locks.
  void Collect(LockPlan& plan, const std::set<std::string>& written) const {
    std::set<std::string> all = reads_;
    for (const auto& name : written) all.insert(FoldIdentifier(name));
    for (const auto& name : all) {
      plan.entries.emplace_back(name, written.contains(name) ||
                                          written.contains(
                                              FoldIdentifier(name)));
    }
  }

 private:
  const Database& db_;
  const std::unordered_set<const sql::SelectCore*>* skip_;
  std::set<std::string> reads_;
  std::set<std::string> visited_views_;
};

/// Which entries of a lock plan to request: all of them, or one phase of
/// a phased plan (LockPlan::phased).
enum class LockPhase { kAll, kReads, kWrites };

/// Turns a lock plan back into lock requests against the live catalog.
/// Names are re-resolved here, so plans survive drop/recreate cycles.
void ApplyLockPlan(LockSet& locks, const Database& db, const LockPlan& plan,
                   LockPhase phase = LockPhase::kAll) {
  for (const auto& [name, write] : plan.entries) {
    if (phase == LockPhase::kReads && write) continue;
    if (phase == LockPhase::kWrites && !write) continue;
    locks.Request(db.FindTable(name), write);
  }
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

ResultSet RelationToResult(Relation&& rel) {
  ResultSet out;
  out.columns.reserve(rel.columns.size());
  for (const auto& binding : rel.columns) out.columns.push_back(binding.name);
  out.rows = std::move(rel.rows);
  return out;
}

Relation ResultToRelation(ResultSet&& result, const std::string& qualifier) {
  Relation rel;
  const std::string folded = FoldIdentifier(qualifier);
  rel.columns.reserve(result.columns.size());
  for (const auto& name : result.columns) {
    rel.columns.push_back({folded, FoldIdentifier(name)});
  }
  rel.rows = std::move(result.rows);
  return rel;
}

/// Renames a relation's columns from an explicit CTE column list.
void RenameColumns(Relation& rel, const std::vector<std::string>& names) {
  if (names.empty()) return;
  if (names.size() != rel.columns.size()) {
    throw AnalysisError("CTE declares " + std::to_string(names.size()) +
                        " columns but its body produces " +
                        std::to_string(rel.columns.size()));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    rel.columns[i].name = FoldIdentifier(names[i]);
  }
}

/// Re-qualifies a relation's columns under `alias` (how a CTE becomes
/// visible in a FROM clause). With `borrow` the result holds row views
/// into `rel` (valid while the CTE binding lives, i.e. for the statement);
/// otherwise it deep-copies, as the reference pipeline always did.
Relation BindAs(const Relation& rel, const std::string& alias, bool borrow) {
  Relation out;
  const std::string folded = FoldIdentifier(alias);
  out.columns.reserve(rel.columns.size());
  for (const auto& binding : rel.columns) {
    out.columns.push_back({folded, binding.name});
  }
  if (borrow) {
    out.borrowed = true;
    out.views.reserve(rel.row_count());
    for (size_t i = 0; i < rel.row_count(); ++i) {
      out.views.push_back(&rel.row(i));
    }
  } else {
    out.rows = rel.rows;
  }
  return out;
}

// --- speculative reserve guards ---------------------------------------
// Size hints derived from input cardinalities are advisory — a cross-join
// estimate multiplies row counts and can overflow size_t or demand an
// absurd up-front allocation. Saturate the arithmetic and cap the reserve;
// growth past the cap is amortized push_back.

constexpr size_t kMaxSpeculativeReserve = size_t{1} << 16;

size_t SaturatingMul(size_t a, size_t b) {
  if (b != 0 && a > std::numeric_limits<size_t>::max() / b) {
    return std::numeric_limits<size_t>::max();
  }
  return a * b;
}

template <typename T>
void GuardedReserve(std::vector<T>& v, size_t hint) {
  v.reserve(std::min(hint, kMaxSpeculativeReserve));
}

std::string OutputName(const sql::SelectItem& item, size_t index) {
  if (!item.alias.empty()) return FoldIdentifier(item.alias);
  if (item.expr->kind == sql::ExprKind::kColumnRef) {
    return FoldIdentifier(item.expr->column);
  }
  return "col" + std::to_string(index + 1);
}

// Hashing / comparison for grouping keys and DISTINCT.
struct KeyHash {
  size_t operator()(const Row& key) const noexcept {
    size_t h = 0x9E3779B97F4A7C15ULL;
    for (const Value& v : key) h = h * 31 + v.Hash();
    return h;
  }
};
struct KeyEq {
  bool operator()(const Row& a, const Row& b) const noexcept {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!Value::KeyEquals(a[i], b[i])) return false;
    }
    return true;
  }
};
struct KeyLess {
  bool operator()(const Row& a, const Row& b) const noexcept {
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      const int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// Splits a predicate into its top-level AND conjuncts.
void SplitConjuncts(const sql::Expr& expr, std::vector<const sql::Expr*>& out) {
  if (expr.kind == sql::ExprKind::kBinary &&
      expr.binary_op == sql::BinaryOp::kAnd) {
    SplitConjuncts(*expr.left, out);
    SplitConjuncts(*expr.right, out);
    return;
  }
  out.push_back(&expr);
}

/// True when two conjuncts bound one column from both sides by numeric
/// literals that admit no value (`c > 5 AND c <= 5`) — e.g. a message-
/// outbox arm whose bound seq window is empty.
bool HasEmptyRange(const std::vector<const sql::Expr*>& conjuncts) {
  struct Bound {
    const sql::Expr* column;
    const Value* value;
    bool lower;
    bool strict;
  };
  std::vector<Bound> bounds;
  for (const sql::Expr* c : conjuncts) {
    if (c->kind != sql::ExprKind::kBinary) continue;
    const sql::BinaryOp op = c->binary_op;
    const bool greater =
        op == sql::BinaryOp::kGreater || op == sql::BinaryOp::kGreaterEq;
    const bool less =
        op == sql::BinaryOp::kLess || op == sql::BinaryOp::kLessEq;
    if (!greater && !less) continue;
    const bool strict =
        op == sql::BinaryOp::kGreater || op == sql::BinaryOp::kLess;
    const auto is_number = [](const sql::Expr& e) {
      return e.kind == sql::ExprKind::kLiteral && e.literal.is_numeric();
    };
    if (c->left->kind == sql::ExprKind::kColumnRef && is_number(*c->right)) {
      bounds.push_back({c->left.get(), &c->right->literal, greater, strict});
    } else if (c->right->kind == sql::ExprKind::kColumnRef &&
               is_number(*c->left)) {
      bounds.push_back({c->right.get(), &c->left->literal, less, strict});
    }
  }
  for (const Bound& low : bounds) {
    if (!low.lower) continue;
    for (const Bound& high : bounds) {
      if (high.lower ||
          FoldIdentifier(low.column->column) !=
              FoldIdentifier(high.column->column) ||
          FoldIdentifier(low.column->qualifier) !=
              FoldIdentifier(high.column->qualifier)) {
        continue;
      }
      const int cmp = Value::Compare(*low.value, *high.value);
      if (cmp > 0 || (cmp == 0 && (low.strict || high.strict))) return true;
    }
  }
  return false;
}

/// SQL join-key equality: NULL never matches anything.
bool JoinKeyEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  return Value::Compare(a, b) == 0;
}

/// Classifies ON-clause conjuncts into (left index, right index) equi-join
/// pairs vs residual predicates that must run on the combined row.
void ClassifyJoinCondition(const sql::Expr* on,
                           const std::vector<ColumnBinding>& left,
                           const std::vector<ColumnBinding>& right,
                           std::vector<std::pair<int, int>>& equi,
                           std::vector<const sql::Expr*>& residual) {
  if (on == nullptr) return;
  std::vector<const sql::Expr*> conjuncts;
  SplitConjuncts(*on, conjuncts);
  for (const sql::Expr* conjunct : conjuncts) {
    if (conjunct->kind == sql::ExprKind::kBinary &&
        conjunct->binary_op == sql::BinaryOp::kEq &&
        conjunct->left->kind == sql::ExprKind::kColumnRef &&
        conjunct->right->kind == sql::ExprKind::kColumnRef) {
      const sql::Expr& a = *conjunct->left;
      const sql::Expr& b = *conjunct->right;
      const int al = TryResolveColumn(left, a.qualifier, a.column);
      const int br = TryResolveColumn(right, b.qualifier, b.column);
      if (al >= 0 && br >= 0) {
        equi.push_back({al, br});
        continue;
      }
      const int bl = TryResolveColumn(left, b.qualifier, b.column);
      const int ar = TryResolveColumn(right, a.qualifier, a.column);
      if (bl >= 0 && ar >= 0) {
        equi.push_back({bl, ar});
        continue;
      }
    }
    residual.push_back(conjunct);
  }
}

/// Picks the first conjunct usable as an equality index probe against
/// `table`: shape `col = <literal>` (either side) with a non-NULL literal —
/// NULL never matches under SQL `=` — and an index on the column. Runs at
/// execution, when a prepared statement's `?` slots are bound literals.
/// Returns the conjunct ordinal (or -1) and the folded column name.
int ChooseProbe(const std::vector<const sql::Expr*>& conjuncts,
                const Table& table, const std::string& alias,
                std::string* column_out) {
  const std::string folded_alias = FoldIdentifier(alias);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const sql::Expr* conjunct = conjuncts[i];
    if (conjunct->kind != sql::ExprKind::kBinary ||
        conjunct->binary_op != sql::BinaryOp::kEq) {
      continue;
    }
    const sql::Expr* column = conjunct->left.get();
    const sql::Expr* literal = conjunct->right.get();
    if (column->kind != sql::ExprKind::kColumnRef) std::swap(column, literal);
    if (column->kind != sql::ExprKind::kColumnRef) continue;
    if (literal->kind != sql::ExprKind::kLiteral ||
        literal->literal.is_null()) {
      continue;
    }
    if (!column->qualifier.empty() &&
        FoldIdentifier(column->qualifier) != folded_alias) {
      continue;
    }
    const std::string col = FoldIdentifier(column->column);
    if (table.schema().FindColumn(col) < 0 || !table.HasIndexOn(col)) {
      continue;
    }
    *column_out = col;
    return static_cast<int>(i);
  }
  return -1;
}

/// The key value of a validated probe conjunct (its literal side).
const Value& ProbeKey(const sql::Expr& conjunct) {
  return conjunct.left->kind == sql::ExprKind::kLiteral
             ? conjunct.left->literal
             : conjunct.right->literal;
}

/// Whether every column in `expr` resolves against `columns` without
/// ambiguity. Never throws: an ambiguous reference just makes the conjunct
/// ineligible for pushdown — it stays in the residual WHERE, where per-row
/// evaluation reports the error exactly as the reference path would.
bool ResolvesUniquely(const sql::Expr& expr,
                      const std::vector<ColumnBinding>& columns) {
  try {
    return AllColumnsResolve(expr, columns);
  } catch (const AnalysisError&) {
    return false;
  }
}

bool ResidualHolds(const std::vector<const sql::Expr*>& residual,
                   const EvalContext& ctx) {
  for (const sql::Expr* predicate : residual) {
    if (!Truthy(Evaluate(*predicate, ctx))) return false;
  }
  return true;
}

// --- ORDER BY resolution ----------------------------------------------
//
// SQL resolves ORDER BY names against the SELECT output first and the
// FROM input second ("SELECT id AS node ... ORDER BY id" sorts by the
// input column). We rewrite each column reference in the order keys into
// a positional reference against a synthetic combined binding list
// [__out.c0.., __in.c0..] so one Evaluate() call per row suffices.
// Aggregate sub-expressions are left untouched so they keep matching the
// collected aggregate list structurally.

sql::ExprPtr RewriteOrderExpr(const sql::Expr& expr,
                              const std::vector<ColumnBinding>& output,
                              const std::vector<ColumnBinding>& input) {
  if (expr.kind == sql::ExprKind::kAggregate) return expr.Clone();
  if (expr.kind == sql::ExprKind::kColumnRef) {
    int index = expr.qualifier.empty()
                    ? TryResolveColumn(output, "", expr.column)
                    : -1;
    if (index >= 0) {
      return sql::MakeColumnRef("__out", "c" + std::to_string(index));
    }
    index = TryResolveColumn(input, expr.qualifier, expr.column);
    if (index >= 0) {
      return sql::MakeColumnRef("__in", "c" + std::to_string(index));
    }
    throw AnalysisError("unknown ORDER BY column '" +
                        (expr.qualifier.empty()
                             ? expr.column
                             : expr.qualifier + "." + expr.column) +
                        "'");
  }
  auto out = expr.Clone();
  // Rewrite children in place (Clone gave us a deep copy to mutate).
  const auto rewrite_child = [&](sql::ExprPtr& child) {
    if (child) child = RewriteOrderExpr(*child, output, input);
  };
  rewrite_child(out->left);
  rewrite_child(out->right);
  for (auto& arg : out->args) arg = RewriteOrderExpr(*arg, output, input);
  rewrite_child(out->case_operand);
  for (auto& when : out->whens) {
    when.condition = RewriteOrderExpr(*when.condition, output, input);
    when.result = RewriteOrderExpr(*when.result, output, input);
  }
  rewrite_child(out->else_expr);
  return out;
}

std::vector<ColumnBinding> CombinedOrderBindings(size_t output_width,
                                                 size_t input_width) {
  std::vector<ColumnBinding> combined;
  combined.reserve(output_width + input_width);
  for (size_t i = 0; i < output_width; ++i) {
    combined.push_back({"__out", "c" + std::to_string(i)});
  }
  for (size_t i = 0; i < input_width; ++i) {
    combined.push_back({"__in", "c" + std::to_string(i)});
  }
  return combined;
}

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SELECT pipeline
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Statement governor (resource governance: see DESIGN.md). The slow paths
// behind GovTick/GovCharge — reached once per `cancel_check_rows` rows or
// per kChargeFlushBytes of transient allocation.
// ---------------------------------------------------------------------------

void Executor::GovSync() {
  gov_countdown_ = check_rows_;
  if (cancel_ != nullptr && cancel_->requested()) {
    SQLOOP_COUNT(recorder_, "governance.mid_statement_cancels", 1);
    cancel_->ThrowNow();
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    SQLOOP_COUNT(recorder_, "governance.mid_statement_cancels", 1);
    throw TimeoutError("statement deadline exceeded mid-statement");
  }
}

void Executor::GovFlush() {
  const int64_t bytes = pending_bytes_;
  pending_bytes_ = 0;
  if (memory_ == nullptr || bytes <= 0) return;
  // Throws QuotaExceededError on breach; Charge already unwound its own
  // partial reservation, and statement_bytes_ keeps only what stuck.
  memory_->Charge(bytes);
  statement_bytes_ += bytes;
}

void Executor::GovBeginStatement() noexcept {
  gov_countdown_ = check_rows_;
  pending_bytes_ = 0;
  statement_bytes_ = 0;
}

void Executor::GovEndStatement() noexcept {
  pending_bytes_ = 0;
  if (memory_ != nullptr && statement_bytes_ > 0) {
    memory_->Release(statement_bytes_);
  }
  statement_bytes_ = 0;
}

Relation Executor::ScanTable(const Table& table, const std::string& alias) {
  Relation rel;
  const std::string folded = FoldIdentifier(alias);
  rel.columns.reserve(table.schema().column_count());
  for (const auto& column : table.schema().columns()) {
    rel.columns.push_back({folded, column.name});
  }
  ++counters_.full_scans;
  if (db_.select_engine() == SelectEngine::kBatch && !table.spill_enabled()) {
    // Zero-copy scan: row views into Table storage, valid under the
    // statement's table lock (see Relation's lifetime rules). Not taken
    // for spill-enabled tables — a whole-table view list would pin every
    // page at once, defeating the pool budget.
    rel.borrowed = true;
    rel.views.reserve(table.live_row_count());
    for (size_t row_id = 0; row_id < table.slot_count(); ++row_id) {
      if (!table.IsLive(row_id)) continue;
      GovTick();
      rel.views.push_back(&table.At(row_id));
    }
    GovCharge(static_cast<int64_t>(rel.views.size() * sizeof(const Row*)));
    counters_.rows_borrowed += rel.views.size();
  } else {
    // Materializing scan: the reference path, and the spill-safe path for
    // eviction-eligible tables — owned copies let the window release each
    // page's pin as the cursor passes it.
    PinScope::Window window;
    rel.rows.reserve(table.live_row_count());
    for (size_t row_id = 0; row_id < table.slot_count(); ++row_id) {
      if ((row_id & kPageRowMask) == 0) window.Reset();
      if (!table.IsLive(row_id)) continue;
      GovTick();
      rel.rows.push_back(table.At(row_id));
      GovCharge(RowFootprintBytes(rel.rows.back()));
    }
    counters_.rows_materialized += rel.rows.size();
  }
  rows_examined_ += rel.row_count();
  return rel;
}

Executor::ScanSetup Executor::SetUpScan(
    const Table& table, const std::string& alias,
    const std::vector<const sql::Expr*>& pushed) {
  ScanSetup setup;
  const std::string folded = FoldIdentifier(alias);
  setup.columns.reserve(table.schema().column_count());
  for (const auto& column : table.schema().columns()) {
    setup.columns.push_back({folded, column.name});
  }
  setup.kernels.assign(pushed.size(), {});
  setup.compiled.assign(pushed.size(), 0);
  for (size_t i = 0; i < pushed.size(); ++i) {
    if (CompilePredicateKernel(*pushed[i], table.schema(), folded,
                               &setup.kernels[i])) {
      setup.compiled[i] = 1;
    } else {
      ++counters_.scalar_fallbacks;
    }
  }
  setup.probe_conjunct =
      ChooseProbe(pushed, table, alias, &setup.probe_column);
  return setup;
}

void Executor::ScanBatched(const Table& table,
                           const std::vector<const sql::Expr*>& pushed,
                           const ScanSetup& setup, const BatchSink& sink) {
  std::unordered_map<const sql::Expr*, int> cache;
  counters_.pushed_predicates += pushed.size();
  bool any_fallback = false;
  bool rewriting_kernel = false;
  for (size_t c = 0; c < setup.compiled.size(); ++c) {
    if (!setup.compiled[c]) {
      any_fallback = true;
    } else if (setup.kernels[c].kind !=
               PredicateKernel::Kind::kAlwaysMatch) {
      rewriting_kernel = true;
    }
  }
  // The identity fill can be skipped when a selection-REWRITING kernel is
  // guaranteed to touch the selection before anything reads it: filter
  // kernels treat a full selection as identity and write it fresh, and a
  // never-match empties it. kAlwaysMatch kernels never write, and the
  // fallback intersection and kernel-less sinks read — those need the
  // real fill.
  const bool elide_select_fill = rewriting_kernel && !any_fallback;

  const auto process = [&](RowBatch& batch) {
    rows_examined_ += batch.size;
    GovTickRows(batch.size);
    ++counters_.batches_produced;
    if (elide_select_fill) {
      batch.MarkAllSelected();
    } else {
      batch.SelectAll();
    }
    if (any_fallback) {
      // Scalar conjuncts run first, row-major over every visited lane (not
      // just the surviving selection): classic AND evaluates every
      // conjunct for every visited row, so each row raises its errors.
      lane_pass_.assign(batch.size, 1);
      for (uint32_t lane = 0; lane < batch.size; ++lane) {
        const Row& row = *batch.rows[lane];
        EvalContext ec{&setup.columns, &row, nullptr, nullptr, &cache};
        for (size_t c = 0; c < pushed.size(); ++c) {
          if (setup.compiled[c]) continue;
          if (!Truthy(Evaluate(*pushed[c], ec))) lane_pass_[lane] = 0;
        }
      }
      uint32_t kept = 0;
      for (uint32_t i = 0; i < batch.selected; ++i) {
        const uint32_t lane = batch.selection[i];
        batch.selection[kept] = lane;
        kept += lane_pass_[lane] ? 1u : 0u;
      }
      batch.selected = kept;
    }
    for (size_t c = 0; c < pushed.size(); ++c) {
      if (!setup.compiled[c]) continue;
      // Kernels are total (no errors, no side effects), so an emptied
      // selection can skip the remaining ones.
      if (batch.selected == 0) break;
      ApplyPredicateKernel(setup.kernels[c], batch);
    }
    sink(batch);
  };

  // Per-batch pin window: FillBatch pins the pages behind the batch's
  // views into the statement scope; once the sink has consumed the batch
  // the window lets those pages evict again. Sinks that retain views only
  // exist on non-spill tables, where the window releases nothing.
  PinScope::Window window;
  if (setup.probe_conjunct >= 0) {
    ++counters_.index_scans;
    probe_ids_.clear();
    table.IndexProbe(setup.probe_column,
                     ProbeKey(*pushed[setup.probe_conjunct]), probe_ids_);
    for (size_t start = 0; start < probe_ids_.size();
         start += RowBatch::kCapacity) {
      const size_t lanes = std::min<size_t>(RowBatch::kCapacity,
                                            probe_ids_.size() - start);
      batch_.Reset();
      batch_.size = static_cast<uint32_t>(table.FillBatchFromIds(
          probe_ids_.data() + start, lanes, batch_.rows.data()));
      process(batch_);
      window.Reset();
    }
    return;
  }
  ++counters_.full_scans;
  size_t cursor = 0;
  for (;;) {
    batch_.Reset();
    batch_.size = static_cast<uint32_t>(
        table.FillBatch(&cursor, batch_.rows.data(), RowBatch::kCapacity));
    if (batch_.size == 0) break;
    process(batch_);
    window.Reset();
  }
}

Relation Executor::ScanFiltered(const Table& table, const std::string& alias,
                                const std::vector<const sql::Expr*>& pushed) {
  ScanSetup setup = SetUpScan(table, alias, pushed);
  Relation rel;
  // Spill-enabled tables get owned copies of the surviving rows instead of
  // borrowed views: the scan windows then release each page as it passes,
  // so the pool budget holds. Same rows in the same order either way.
  rel.borrowed = !table.spill_enabled();
  // Kernels filter whole batches; the surviving lanes land in the view
  // list (or, spill-enabled, the owned rows) in scan order.
  const auto collect = [&rel, this](RowBatch& batch) {
    for (uint32_t i = 0; i < batch.selected; ++i) {
      if (rel.borrowed) {
        rel.views.push_back(batch.rows[batch.selection[i]]);
      } else {
        rel.rows.push_back(*batch.rows[batch.selection[i]]);
        GovCharge(RowFootprintBytes(rel.rows.back()));
      }
    }
  };
  ScanBatched(table, pushed, setup, collect);
  rel.columns = std::move(setup.columns);
  if (rel.borrowed) {
    counters_.rows_borrowed += rel.views.size();
  } else {
    counters_.rows_materialized += rel.rows.size();
  }
  return rel;
}

Relation Executor::EvalTableRef(const sql::TableRef& ref, ExecContext& ctx) {
  switch (ref.kind) {
    case sql::TableRefKind::kBase: {
      const std::string name = FoldIdentifier(ref.table_name);
      const auto cte = ctx.cte_bindings.find(name);
      if (cte != ctx.cte_bindings.end()) {
        Relation bound = BindAs(*cte->second, ref.alias,
                                db_.select_engine() == SelectEngine::kBatch);
        if (bound.borrowed) {
          counters_.rows_borrowed += bound.views.size();
        } else {
          counters_.rows_materialized += bound.rows.size();
        }
        return bound;
      }
      if (const auto view = db_.FindView(name)) {
        ExecContext view_ctx;  // views cannot see the caller's CTEs
        ResultSet result = EvalSelect(*view, view_ctx);
        return ResultToRelation(std::move(result), ref.alias);
      }
      const auto table = db_.FindTable(name);
      if (!table) {
        throw ExecutionError("relation '" + ref.table_name +
                             "' does not exist");
      }
      return ScanTable(*table, ref.alias);
    }
    case sql::TableRefKind::kSubquery: {
      ResultSet result = EvalSelect(*ref.subquery, ctx);
      return ResultToRelation(std::move(result), ref.alias);
    }
    case sql::TableRefKind::kJoin:
      return EvalJoin(ref, ctx);
  }
  throw UsageError("unknown table reference kind");
}

Relation Executor::EvalJoin(const sql::TableRef& join, ExecContext& ctx) {
  JoinState state = PrepareJoin(join, ctx, /*pending=*/nullptr);
  Relation out;
  out.columns = state.columns;
  if (join.join_kind == sql::JoinKind::kCross) {
    const size_t right_rows = state.right_materialized
                                  ? state.right.row_count()
                                  : state.right_table->live_row_count();
    GuardedReserve(out.rows,
                   SaturatingMul(state.left.row_count(), right_rows));
  }
  const auto collect = [this, &out](Row&& row) {
    GovCharge(RowFootprintBytes(row));
    out.rows.push_back(std::move(row));
  };
  RunJoin(state, collect);
  counters_.rows_materialized += out.rows.size();
  return out;
}

Relation Executor::EvalJoinInput(const sql::TableRef& ref, ExecContext& ctx,
                                 std::vector<const sql::Expr*>* pending) {
  if (pending != nullptr && ref.kind == sql::TableRefKind::kBase) {
    const std::string name = FoldIdentifier(ref.table_name);
    if (!ctx.cte_bindings.contains(name) && !db_.HasView(name)) {
      if (const auto table = db_.FindTable(name)) {
        // Claim the pending WHERE conjuncts that resolve entirely against
        // this input and evaluate them during its scan.
        const std::string alias = FoldIdentifier(ref.alias);
        std::vector<ColumnBinding> bindings;
        bindings.reserve(table->schema().column_count());
        for (const auto& column : table->schema().columns()) {
          bindings.push_back({alias, column.name});
        }
        std::vector<const sql::Expr*> pushed;
        for (auto it = pending->begin(); it != pending->end();) {
          if (ResolvesUniquely(**it, bindings)) {
            pushed.push_back(*it);
            it = pending->erase(it);
          } else {
            ++it;
          }
        }
        return ScanFiltered(*table, ref.alias, pushed);
      }
      // Missing relation: EvalTableRef below owns the error message.
    }
  }
  if (pending != nullptr && ref.kind == sql::TableRefKind::kJoin) {
    JoinState nested = PrepareJoin(ref, ctx, pending);
    Relation out;
    out.columns = nested.columns;
    const auto collect = [this, &out](Row&& row) {
      GovCharge(RowFootprintBytes(row));
      out.rows.push_back(std::move(row));
    };
    RunJoin(nested, collect);
    counters_.rows_materialized += out.rows.size();
    return out;
  }
  return EvalTableRef(ref, ctx);
}

Executor::JoinState Executor::PrepareJoin(
    const sql::TableRef& join, ExecContext& ctx,
    std::vector<const sql::Expr*>* pending) {
  JoinState state;
  state.join = &join;
  const bool left_join = join.join_kind == sql::JoinKind::kLeft;
  // A left-only WHERE conjunct commutes with a LEFT JOIN (a failing left
  // row only ever produces failing outputs), so the left input always
  // sees `pending`.
  state.left = EvalJoinInput(*join.left, ctx, pending);

  const sql::TableRef& right_ref = *join.right;
  // When the right side is a plain base table (not a CTE or view) we keep
  // the Table handle so the MySQL-style profile can do index nested loops.
  if (right_ref.kind == sql::TableRefKind::kBase) {
    const std::string name = FoldIdentifier(right_ref.table_name);
    if (!ctx.cte_bindings.contains(name) && !db_.HasView(name)) {
      state.right_table = db_.FindTable(name);
      if (!state.right_table) {
        throw ExecutionError("relation '" + right_ref.table_name +
                             "' does not exist");
      }
    }
  }

  if (state.right_table) {
    const std::string alias = FoldIdentifier(right_ref.alias);
    for (const auto& column : state.right_table->schema().columns()) {
      state.right_columns.push_back({alias, column.name});
    }
    // Right-side pushdown: for INNER/CROSS joins a right-only WHERE
    // conjunct filters before the join. (Under a LEFT JOIN it must run
    // after NULL-padding, so it stays in the residual WHERE.)
    if (pending != nullptr && !left_join) {
      std::vector<const sql::Expr*> pushed;
      for (auto it = pending->begin(); it != pending->end();) {
        if (ResolvesUniquely(**it, state.right_columns)) {
          pushed.push_back(*it);
          it = pending->erase(it);
        } else {
          ++it;
        }
      }
      if (!pushed.empty()) {
        state.right =
            ScanFiltered(*state.right_table, right_ref.alias, pushed);
        state.right_materialized = true;  // rules out index nested loop
      }
    }
  } else {
    state.right =
        EvalJoinInput(right_ref, ctx, left_join ? nullptr : pending);
    state.right_columns = state.right.columns;
    state.right_materialized = true;
  }

  state.columns.reserve(state.left.columns.size() +
                        state.right_columns.size());
  state.columns.insert(state.columns.end(), state.left.columns.begin(),
                       state.left.columns.end());
  state.columns.insert(state.columns.end(), state.right_columns.begin(),
                       state.right_columns.end());

  if (join.join_kind != sql::JoinKind::kCross) {
    ClassifyJoinCondition(join.on_condition.get(), state.left.columns,
                          state.right_columns, state.equi, state.residual);
  }
  return state;
}

void Executor::RunJoin(JoinState& state, const OwnedRowSink& sink) {
  const sql::TableRef& join = *state.join;
  const Relation& left = state.left;

  const auto materialize_right = [&] {
    if (!state.right_materialized) {
      state.right = ScanTable(*state.right_table, join.right->alias);
      state.right_materialized = true;
    }
  };

  if (join.join_kind == sql::JoinKind::kCross) {
    materialize_right();
    for (size_t li = 0; li < left.row_count(); ++li) {
      const Row& l = left.row(li);
      for (size_t ri = 0; ri < state.right.row_count(); ++ri) {
        GovTick();
        sink(ConcatRows(l, state.right.row(ri)));
      }
    }
    return;
  }

  std::unordered_map<const sql::Expr*, int> cache;
  const size_t right_width = state.right_columns.size();
  const bool left_join = join.join_kind == sql::JoinKind::kLeft;
  const auto& equi = state.equi;

  const auto emit_unmatched = [&](const Row& l) {
    if (!left_join) return;
    Row padded = l;
    padded.resize(l.size() + right_width);  // default-constructed = NULL
    sink(std::move(padded));
  };
  const auto match_residual = [&](const Row& combined) {
    if (state.residual.empty()) return true;
    EvalContext ec{&state.columns, &combined, nullptr, nullptr, &cache};
    return ResidualHolds(state.residual, ec);
  };

  // --- strategy selection per engine profile --------------------------
  const JoinAlgorithm algorithm = db_.profile().join_algorithm;

  // Index nested loop: available when the right side is a base table with
  // an index on one of the equi-join columns (MySQL 5.7's only fast path)
  // and predicate pushdown has not already filtered it into a relation.
  int inl_pair = -1;
  if (state.right_table && !state.right_materialized &&
      (algorithm == JoinAlgorithm::kNestedLoop ||
       algorithm == JoinAlgorithm::kNestedLoopOrHash)) {
    for (size_t i = 0; i < equi.size(); ++i) {
      const std::string& column =
          state.right_table->schema().columns()[equi[i].second].name;
      if (state.right_table->HasIndexOn(column)) {
        inl_pair = static_cast<int>(i);
        break;
      }
    }
  }

  if (inl_pair >= 0) {
    const auto& pair = equi[static_cast<size_t>(inl_pair)];
    const Table& right_table = *state.right_table;
    const std::string& column =
        right_table.schema().columns()[pair.second].name;
    ++counters_.index_scans;
    // Probed right-side pages release per left row (ConcatRows copied
    // everything the sink needs).
    PinScope::Window window;
    for (size_t li = 0; li < left.row_count(); ++li) {
      window.Reset();
      const Row& l = left.row(li);
      const Value& key = l[pair.first];
      bool matched = false;
      if (!key.is_null()) {
        probe_ids_.clear();
        right_table.IndexProbe(column, key, probe_ids_);
        for (const size_t row_id : probe_ids_) {
          ++rows_examined_;
          GovTick();
          const Row& r = right_table.At(row_id);
          bool keys_ok = true;
          for (size_t i = 0; i < equi.size(); ++i) {
            if (static_cast<int>(i) == inl_pair) continue;
            if (!JoinKeyEquals(l[equi[i].first], r[equi[i].second])) {
              keys_ok = false;
              break;
            }
          }
          if (!keys_ok) continue;
          Row combined = ConcatRows(l, r);
          if (!match_residual(combined)) continue;
          sink(std::move(combined));
          matched = true;
        }
      }
      if (!matched) emit_unmatched(l);
    }
    return;
  }

  const bool use_hash =
      !equi.empty() && (algorithm == JoinAlgorithm::kHash ||
                        algorithm == JoinAlgorithm::kNestedLoopOrHash);

  materialize_right();
  const Relation& right = state.right;

  if (use_hash) {
    // Build on the right side, probe from the left, both block-at-a-time:
    // governance ticks once per RowBatch::kCapacity rows, and the probe
    // reuses one key buffer instead of allocating per row. Matches emit in
    // left order, each left row's in right (build) order.
    std::unordered_map<Row, std::vector<size_t>, KeyHash, KeyEq> built;
    built.reserve(right.row_count());
    const auto build_one = [&](size_t i) {
      const Row& r = right.row(i);
      Row key;
      key.reserve(equi.size());
      bool has_null = false;
      for (const auto& pair : equi) {
        const Value& v = r[pair.second];
        if (v.is_null()) {
          has_null = true;
          break;
        }
        key.push_back(v);
      }
      if (!has_null) {
        GovCharge(RowFootprintBytes(key) + static_cast<int64_t>(sizeof(size_t)));
        built[std::move(key)].push_back(i);
      }
    };
    Row probe_key;
    probe_key.reserve(equi.size());
    const auto probe_one = [&](size_t li) {
      const Row& l = left.row(li);
      probe_key.clear();
      bool has_null = false;
      for (const auto& pair : equi) {
        const Value& v = l[pair.first];
        if (v.is_null()) {
          has_null = true;
          break;
        }
        probe_key.push_back(v);
      }
      bool matched = false;
      if (!has_null) {
        const auto it = built.find(probe_key);
        if (it != built.end()) {
          for (const size_t i : it->second) {
            Row combined = ConcatRows(l, right.row(i));
            if (!match_residual(combined)) continue;
            sink(std::move(combined));
            matched = true;
          }
        }
      }
      if (!matched) emit_unmatched(l);
    };
    const size_t right_count = right.row_count();
    for (size_t start = 0; start < right_count; start += RowBatch::kCapacity) {
      const size_t end = std::min(right_count, start + RowBatch::kCapacity);
      GovTickRows(static_cast<int64_t>(end - start));
      for (size_t i = start; i < end; ++i) build_one(i);
    }
    const size_t left_count = left.row_count();
    for (size_t start = 0; start < left_count; start += RowBatch::kCapacity) {
      const size_t end = std::min(left_count, start + RowBatch::kCapacity);
      GovTickRows(static_cast<int64_t>(end - start));
      for (size_t li = start; li < end; ++li) probe_one(li);
    }
    return;
  }

  // Plain nested loop (MySQL 5.7 with no usable index).
  for (size_t li = 0; li < left.row_count(); ++li) {
    const Row& l = left.row(li);
    bool matched = false;
    for (size_t ri = 0; ri < right.row_count(); ++ri) {
      GovTick();
      const Row& r = right.row(ri);
      bool keys_ok = true;
      for (const auto& pair : equi) {
        if (!JoinKeyEquals(l[pair.first], r[pair.second])) {
          keys_ok = false;
          break;
        }
      }
      if (!keys_ok) continue;
      Row combined = ConcatRows(l, r);
      if (!match_residual(combined)) continue;
      sink(std::move(combined));
      matched = true;
    }
    if (!matched) emit_unmatched(l);
  }
}

bool Executor::TryCollectTreeBindings(const sql::TableRef& ref,
                                      ExecContext& ctx,
                                      std::vector<ColumnBinding>& out) const {
  switch (ref.kind) {
    case sql::TableRefKind::kBase: {
      const std::string name = FoldIdentifier(ref.table_name);
      const std::string alias = FoldIdentifier(ref.alias);
      const auto cte = ctx.cte_bindings.find(name);
      if (cte != ctx.cte_bindings.end()) {
        for (const auto& binding : cte->second->columns) {
          out.push_back({alias, binding.name});
        }
        return true;
      }
      if (db_.HasView(name)) return false;  // view output needs evaluation
      const auto table = db_.FindTable(name);
      if (!table) return false;  // let evaluation report the error
      for (const auto& column : table->schema().columns()) {
        out.push_back({alias, column.name});
      }
      return true;
    }
    case sql::TableRefKind::kJoin:
      return TryCollectTreeBindings(*ref.left, ctx, out) &&
             TryCollectTreeBindings(*ref.right, ctx, out);
    case sql::TableRefKind::kSubquery:
      return false;
  }
  return false;
}

Relation Executor::ProjectCore(const sql::SelectCore& core,
                               const std::vector<ColumnBinding>& input_columns,
                               const BatchSource& input,
                               const std::vector<sql::OrderItem>* order_by,
                               std::vector<Row>* sort_keys) {
  Relation out;
  // Expand the output binding list (stars expand to input columns).
  struct ProjectionSlot {
    const sql::Expr* expr = nullptr;  // null => direct input column copy
    int input_index = -1;
  };
  std::vector<ProjectionSlot> slots;
  for (size_t i = 0; i < core.items.size(); ++i) {
    const sql::SelectItem& item = core.items[i];
    if (item.expr->kind == sql::ExprKind::kStar) {
      const std::string qualifier = FoldIdentifier(item.expr->qualifier);
      bool any = false;
      for (size_t c = 0; c < input_columns.size(); ++c) {
        if (!qualifier.empty() && input_columns[c].qualifier != qualifier) {
          continue;
        }
        slots.push_back({nullptr, static_cast<int>(c)});
        out.columns.push_back({"", input_columns[c].name});
        any = true;
      }
      if (!any && !qualifier.empty()) {
        throw AnalysisError("no table '" + item.expr->qualifier +
                            "' to expand in SELECT " + item.expr->qualifier +
                            ".*");
      }
      continue;
    }
    slots.push_back({item.expr.get(), -1});
    out.columns.push_back({"", OutputName(item, i)});
  }

  // Prepare ORDER BY machinery (output-first, input-fallback resolution).
  std::vector<sql::ExprPtr> order_exprs;
  std::vector<ColumnBinding> order_bindings;
  if (order_by != nullptr) {
    for (const auto& item : *order_by) {
      order_exprs.push_back(
          RewriteOrderExpr(*item.expr, out.columns, input_columns));
    }
    order_bindings =
        CombinedOrderBindings(out.columns.size(), input_columns.size());
  }

  std::unordered_map<const sql::Expr*, int> cache;
  std::unordered_map<const sql::Expr*, int> order_cache;
  const auto consume = [&](RowBatch& batch) {
    for (uint32_t i = 0; i < batch.selected; ++i) {
      const Row& row = *batch.rows[batch.selection[i]];
      Row projected;
      projected.reserve(slots.size());
      EvalContext ec{&input_columns, &row, nullptr, nullptr, &cache};
      for (const ProjectionSlot& slot : slots) {
        if (slot.expr == nullptr) {
          projected.push_back(row[slot.input_index]);
        } else {
          projected.push_back(Evaluate(*slot.expr, ec));
        }
      }
      if (order_by != nullptr) {
        Row combined = ConcatRows(projected, row);
        EvalContext oc{&order_bindings, &combined, nullptr, nullptr,
                       &order_cache};
        Row key;
        key.reserve(order_exprs.size());
        for (const auto& expr : order_exprs) {
          key.push_back(Evaluate(*expr, oc));
        }
        sort_keys->push_back(std::move(key));
      }
      GovCharge(RowFootprintBytes(projected));
      out.rows.push_back(std::move(projected));
    }
  };
  input(consume);
  return out;
}

namespace {

/// How the no-GROUP-BY fast path feeds one aggregate. Plain column (or
/// ABS(column)) arguments over a type the span feeds handle reduce a whole
/// batch at once; everything else (DISTINCT, complex arguments, SUM/AVG
/// over text — which must throw per row) feeds scalar Add() per lane.
struct AggSpec {
  enum class Mode : uint8_t { kCountStar, kColumn, kAbsColumn, kScalar };
  Mode mode = Mode::kScalar;
  int column = -1;
  ValueType type = ValueType::kNull;
};

AggSpec ClassifyAggregate(const sql::Expr& agg,
                          const std::vector<ColumnBinding>& columns,
                          const Schema* schema) {
  AggSpec spec;
  if (agg.agg_distinct) return spec;
  if (agg.agg_star) {
    spec.mode = AggSpec::Mode::kCountStar;
    return spec;
  }
  if (schema == nullptr || agg.args.empty()) return spec;
  const sql::Expr* arg = agg.args[0].get();
  const bool abs_arg = arg->kind == sql::ExprKind::kFunction &&
                       arg->function_name == "ABS" && arg->args.size() == 1;
  if (abs_arg) arg = arg->args[0].get();
  if (arg->kind != sql::ExprKind::kColumnRef) return spec;
  int column = -1;
  try {
    column = TryResolveColumn(columns, arg->qualifier, arg->column);
  } catch (const AnalysisError&) {
    return spec;  // ambiguous: the scalar feed raises the error
  }
  if (column < 0) return spec;
  const ValueType type = schema->columns()[column].type;
  const bool numeric = type == ValueType::kInt64 || type == ValueType::kDouble;
  const bool text_ok = !abs_arg && type == ValueType::kText &&
                       (agg.agg_func == sql::AggFunc::kMin ||
                        agg.agg_func == sql::AggFunc::kMax ||
                        agg.agg_func == sql::AggFunc::kCount);
  if (!numeric && !text_ok) return spec;
  spec.mode = abs_arg ? AggSpec::Mode::kAbsColumn : AggSpec::Mode::kColumn;
  spec.column = column;
  spec.type = type;
  return spec;
}

}  // namespace

Relation Executor::AggregateCore(const sql::SelectCore& core,
                                 const std::vector<ColumnBinding>& input_columns,
                                 const Schema* schema, const BatchSource& input,
                                 const std::vector<sql::OrderItem>* order_by,
                                 std::vector<Row>* sort_keys) {
  // Aggregate sub-expressions across the SELECT list, HAVING, and ORDER BY.
  std::vector<const sql::Expr*> agg_exprs;
  for (const auto& item : core.items) CollectAggregates(*item.expr, agg_exprs);
  if (core.having) CollectAggregates(*core.having, agg_exprs);
  if (order_by != nullptr) {
    for (const auto& item : *order_by) {
      CollectAggregates(*item.expr, agg_exprs);
    }
  }

  for (const auto& item : core.items) {
    if (item.expr->kind == sql::ExprKind::kStar) {
      throw AnalysisError("'*' cannot be mixed with aggregation");
    }
  }

  // Without GROUP BY every row feeds the one group, so the fast path can
  // reduce span-friendly aggregates batch-wise; with GROUP BY every
  // aggregate feeds per lane into its row's group.
  const bool grouped = !core.group_by.empty();
  std::vector<AggSpec> specs(agg_exprs.size());
  size_t scalar_aggs = 0;
  for (size_t i = 0; i < agg_exprs.size(); ++i) {
    if (!grouped) specs[i] = ClassifyAggregate(*agg_exprs[i], input_columns,
                                               schema);
    if (specs[i].mode == AggSpec::Mode::kScalar) ++scalar_aggs;
  }
  if (!grouped) counters_.scalar_fallbacks += scalar_aggs;

  struct Group {
    Row representative;
    std::vector<Accumulator> accumulators;
  };

  const auto new_group = [&](const Row& row) {
    Group group;
    group.representative = row;
    group.accumulators.reserve(agg_exprs.size());
    for (const sql::Expr* agg : agg_exprs) {
      group.accumulators.emplace_back(agg->agg_func, agg->agg_distinct);
    }
    return group;
  };

  // Scalar aggregates feed lane-major (aggregates inner, in collection
  // order), so a throwing argument raises on the first row that throws.
  std::unordered_map<const sql::Expr*, int> cache;
  const auto feed = [&](Group& group, const Row& row) {
    EvalContext ec{&input_columns, &row, nullptr, nullptr, &cache};
    for (size_t i = 0; i < agg_exprs.size(); ++i) {
      if (specs[i].mode != AggSpec::Mode::kScalar) continue;
      const sql::Expr* agg = agg_exprs[i];
      if (agg->agg_star) {
        group.accumulators[i].Add(Value(int64_t{1}));
      } else {
        group.accumulators[i].Add(Evaluate(*agg->args[0], ec));
      }
    }
  };

  // The span feeds: gather the selected non-NULL lanes of one column into
  // a dense buffer (SQL aggregates skip NULL inputs) and bulk-feed it —
  // the exact equivalent of the per-lane Add() sequence.
  const auto feed_spans = [&](Group& group, const RowBatch& batch) {
    for (size_t a = 0; a < agg_exprs.size(); ++a) {
      const AggSpec& spec = specs[a];
      Accumulator& acc = group.accumulators[a];
      if (spec.mode == AggSpec::Mode::kScalar) continue;
      if (spec.mode == AggSpec::Mode::kCountStar) {
        acc.AddCountedRows(batch.selected);
        continue;
      }
      const bool abs = spec.mode == AggSpec::Mode::kAbsColumn;
      if (spec.type == ValueType::kInt64) {
        auto& dense = gather_.ints;
        dense.clear();
        for (uint32_t i = 0; i < batch.selected; ++i) {
          const Value& v = (*batch.rows[batch.selection[i]])[spec.column];
          if (!v.is_null()) dense.push_back(v.int_unchecked());
        }
        if (abs) {
          for (int64_t& x : dense) x = std::abs(x);
        }
        acc.AddInt64Span(dense.data(), dense.size());
      } else if (spec.type == ValueType::kDouble) {
        auto& dense = gather_.doubles;
        dense.clear();
        for (uint32_t i = 0; i < batch.selected; ++i) {
          const Value& v = (*batch.rows[batch.selection[i]])[spec.column];
          if (!v.is_null()) dense.push_back(v.double_unchecked());
        }
        if (abs) {
          for (double& x : dense) x = std::fabs(x);
        }
        acc.AddDoubleSpan(dense.data(), dense.size());
      } else {
        auto& dense = gather_.texts;
        dense.clear();
        for (uint32_t i = 0; i < batch.selected; ++i) {
          const Value& v = (*batch.rows[batch.selection[i]])[spec.column];
          if (!v.is_null()) dense.push_back(&v.text_unchecked());
        }
        acc.AddTextSpan(dense.data(), dense.size());
      }
    }
  };

  // Group rows as they stream in. The engine profile picks hash vs sort
  // lookup; both are correct, they just cost differently (matching
  // postgres vs mysql). Either way `groups` keeps first-occurrence order,
  // so the accumulator feed order and the output order are identical to
  // the materializing pipeline's.
  std::vector<Group> groups;
  const bool hash_grouping =
      db_.profile().agg_algorithm == AggAlgorithm::kHash;
  std::unordered_map<Row, size_t, KeyHash, KeyEq> hash_index;
  std::map<Row, size_t, KeyLess> sort_index;
  const auto consume = [&](RowBatch& batch) {
    if (!grouped) {
      if (batch.selected == 0) return;
      if (groups.empty()) {
        groups.push_back(new_group(*batch.rows[batch.selection[0]]));
      }
      if (scalar_aggs > 0) {
        for (uint32_t i = 0; i < batch.selected; ++i) {
          feed(groups[0], *batch.rows[batch.selection[i]]);
        }
      }
      feed_spans(groups[0], batch);
      return;
    }
    for (uint32_t i = 0; i < batch.selected; ++i) {
      const Row& row = *batch.rows[batch.selection[i]];
      Row key;
      key.reserve(core.group_by.size());
      EvalContext ec{&input_columns, &row, nullptr, nullptr, &cache};
      for (const auto& expr : core.group_by) {
        key.push_back(Evaluate(*expr, ec));
      }
      const int64_t key_bytes = RowFootprintBytes(key);
      const size_t slot =
          hash_grouping
              ? hash_index.try_emplace(std::move(key), groups.size())
                    .first->second
              : sort_index.try_emplace(std::move(key), groups.size())
                    .first->second;
      if (slot == groups.size()) {
        // A new group holds its key, a representative row copy, and one
        // accumulator per aggregate expression.
        GovCharge(key_bytes + RowFootprintBytes(row) +
                  static_cast<int64_t>(agg_exprs.size() * sizeof(Accumulator)));
        groups.push_back(new_group(row));
      }
      feed(groups[slot], row);
    }
  };
  input(consume);
  if (!grouped && groups.empty()) {
    // Aggregating an empty input still yields one group; its
    // representative is an all-NULL row.
    groups.push_back(new_group(Row(input_columns.size())));
  }

  // Project each group.
  Relation out;
  out.columns.reserve(core.items.size());
  for (size_t i = 0; i < core.items.size(); ++i) {
    out.columns.push_back({"", OutputName(core.items[i], i)});
  }

  std::vector<sql::ExprPtr> order_exprs;
  std::vector<ColumnBinding> order_bindings;
  if (order_by != nullptr) {
    for (const auto& item : *order_by) {
      order_exprs.push_back(
          RewriteOrderExpr(*item.expr, out.columns, input_columns));
    }
    order_bindings =
        CombinedOrderBindings(out.columns.size(), input_columns.size());
  }

  std::unordered_map<const sql::Expr*, int> project_cache;
  std::unordered_map<const sql::Expr*, int> order_cache;
  for (const Group& group : groups) {
    std::vector<Value> agg_values;
    agg_values.reserve(group.accumulators.size());
    for (const Accumulator& acc : group.accumulators) {
      agg_values.push_back(acc.Result());
    }
    EvalContext ec{&input_columns, &group.representative, &agg_exprs,
                   &agg_values, &project_cache};
    if (core.having && !Truthy(Evaluate(*core.having, ec))) continue;
    Row projected;
    projected.reserve(core.items.size());
    for (const auto& item : core.items) {
      projected.push_back(Evaluate(*item.expr, ec));
    }
    if (order_by != nullptr) {
      Row combined = ConcatRows(projected, group.representative);
      EvalContext oc{&order_bindings, &combined, &agg_exprs, &agg_values,
                     &order_cache};
      Row key;
      key.reserve(order_exprs.size());
      for (const auto& expr : order_exprs) {
        key.push_back(Evaluate(*expr, oc));
      }
      sort_keys->push_back(std::move(key));
    }
    out.rows.push_back(std::move(projected));
  }
  return out;
}

bool Executor::EvalBatchCore(const sql::SelectCore& core, ExecContext& ctx,
                             bool aggregate_mode,
                             const std::vector<sql::OrderItem>* order_by,
                             std::vector<Row>* sort_keys, Relation* out) {
  if (!core.from) return false;

  std::vector<const sql::Expr*> conjuncts;
  if (core.where) SplitConjuncts(*core.where, conjuncts);

  if (core.from->kind == sql::TableRefKind::kBase) {
    const std::string name = FoldIdentifier(core.from->table_name);
    if (ctx.cte_bindings.contains(name) || db_.HasView(name)) return false;
    const auto table = db_.FindTable(name);
    if (!table) return false;  // the reference path reports the error

    const ScanSetup setup = SetUpScan(*table, core.from->alias, conjuncts);
    const auto source = [&](const BatchSink& sink) {
      ScanBatched(*table, conjuncts, setup, sink);
    };
    *out = aggregate_mode
               ? AggregateCore(core, setup.columns, &table->schema(), source,
                               order_by, sort_keys)
               : ProjectCore(core, setup.columns, source, order_by,
                             sort_keys);
    ++counters_.vectorized_cores;
    return true;
  }

  if (core.from->kind != sql::TableRefKind::kJoin) {
    return false;  // subqueries go through the reference path
  }
  // Join pushdown needs the full output bindings up front: a conjunct may
  // only push into one input if it resolves uniquely in the FULL scope
  // (checking against a nested scope alone could mask an ambiguity the
  // reference path would report).
  std::vector<ColumnBinding> tree;
  std::vector<const sql::Expr*> pending;
  std::vector<const sql::Expr*> residual;
  if (TryCollectTreeBindings(*core.from, ctx, tree)) {
    for (const sql::Expr* conjunct : conjuncts) {
      if (ResolvesUniquely(*conjunct, tree)) {
        pending.push_back(conjunct);
      } else {
        residual.push_back(conjunct);
      }
    }
  } else {
    residual = conjuncts;
  }
  JoinState state =
      PrepareJoin(*core.from, ctx, pending.empty() ? nullptr : &pending);
  // Conjuncts no single input claimed filter the combined rows, per lane.
  residual.insert(residual.end(), pending.begin(), pending.end());
  counters_.scalar_fallbacks += residual.size();

  // The join producer: combined rows that pass the residual WHERE are
  // copied into staging slots and pushed as batches of views into them.
  // Copying (not moving) lets each slot keep its allocation across the
  // statement's batches, and a short stage stays cache-resident; staging
  // whole 1024-row batches of moved rows measured 10-20% slower on
  // join-heavy cores. Every combined row ticks the governor, so a join's
  // fan-out counts toward cancel_check_rows whether or not it survives.
  constexpr size_t kJoinStageRows = 64;
  std::vector<Row> staged(kJoinStageRows);
  std::unordered_map<const sql::Expr*, int> where_cache;
  const auto source = [&](const BatchSink& sink) {
    size_t count = 0;
    const auto flush = [&] {
      batch_.Reset();
      for (size_t i = 0; i < count; ++i) batch_.rows[batch_.size++] = &staged[i];
      batch_.SelectAll();
      ++counters_.batches_produced;
      sink(batch_);
      count = 0;
    };
    RunJoin(state, [&](Row&& row) {
      GovTick();
      if (!residual.empty()) {
        EvalContext ec{&state.columns, &row, nullptr, nullptr, &where_cache};
        bool ok = true;
        for (const sql::Expr* conjunct : residual) {
          if (!Truthy(Evaluate(*conjunct, ec))) ok = false;
        }
        if (!ok) return;
      }
      staged[count++] = row;
      if (count == staged.size()) flush();
    });
    if (count > 0) flush();
  };
  *out = aggregate_mode ? AggregateCore(core, state.columns, /*schema=*/nullptr,
                                        source, order_by, sort_keys)
                        : ProjectCore(core, state.columns, source, order_by,
                                      sort_keys);
  ++counters_.vectorized_cores;
  return true;
}

bool Executor::IsEmptyRangeCore(const sql::SelectCore& core,
                                const ExecContext& ctx) const {
  if (!core.where || !core.from ||
      core.from->kind != sql::TableRefKind::kBase || !core.group_by.empty() ||
      core.having != nullptr) {
    return false;
  }
  std::vector<const sql::Expr*> conjuncts;
  SplitConjuncts(*core.where, conjuncts);
  if (conjuncts.size() < 2 || !HasEmptyRange(conjuncts)) return false;
  const std::string name = FoldIdentifier(core.from->table_name);
  if (ctx.cte_bindings.contains(name) || db_.HasView(name)) return false;
  const auto table = db_.FindTable(name);
  if (!table) return false;  // the regular paths report the error
  for (const auto& item : core.items) {
    if (item.expr->kind == sql::ExprKind::kStar ||
        ContainsAggregate(*item.expr)) {
      return false;
    }
  }
  // Only when every conjunct is total over this table: then no row could
  // raise an error either path would surface, and nothing is skipped but
  // rows the predicate rejects. (A table's schema never changes while
  // the table exists, so this holds without its lock.)
  const std::string alias = FoldIdentifier(core.from->alias);
  PredicateKernel kernel;
  for (const sql::Expr* conjunct : conjuncts) {
    if (!CompilePredicateKernel(*conjunct, table->schema(), alias, &kernel)) {
      return false;
    }
  }
  return true;
}

void Executor::FindEmptyCores(const sql::SelectStmt& select,
                              ExecContext& ctx) const {
  for (const auto& core : select.cores) {
    if (IsEmptyRangeCore(core, ctx)) {
      ctx.empty_cores.insert(&core);
      continue;
    }
    std::vector<const sql::TableRef*> refs;
    if (core.from) refs.push_back(core.from.get());
    while (!refs.empty()) {
      const sql::TableRef* ref = refs.back();
      refs.pop_back();
      if (ref->kind == sql::TableRefKind::kSubquery) {
        FindEmptyCores(*ref->subquery, ctx);
      } else if (ref->kind == sql::TableRefKind::kJoin) {
        refs.push_back(ref->left.get());
        refs.push_back(ref->right.get());
      }
    }
  }
}

Relation Executor::EvalCore(const sql::SelectCore& core, ExecContext& ctx,
                            const std::vector<sql::OrderItem>* order_by,
                            std::vector<Row>* sort_keys) {
  bool aggregate_mode = !core.group_by.empty() || core.having != nullptr;
  if (!aggregate_mode) {
    for (const auto& item : core.items) {
      if (ContainsAggregate(*item.expr)) {
        aggregate_mode = true;
        break;
      }
    }
  }

  Relation out;
  if (ctx.empty_cores.contains(&core)) {
    out.columns.reserve(core.items.size());
    for (size_t i = 0; i < core.items.size(); ++i) {
      out.columns.push_back({"", OutputName(core.items[i], i)});
    }
    return out;
  }
  if (db_.select_engine() != SelectEngine::kBatch ||
      !EvalBatchCore(core, ctx, aggregate_mode, order_by, sort_keys, &out)) {
    out = EvalCoreReference(core, ctx, aggregate_mode, order_by, sort_keys);
  }

  if (core.distinct) {
    std::unordered_set<Row, KeyHash, KeyEq> seen;
    std::vector<Row> unique;
    std::vector<Row> unique_keys;
    unique.reserve(out.rows.size());
    for (size_t i = 0; i < out.rows.size(); ++i) {
      GovTick();
      if (seen.insert(out.rows[i]).second) {
        unique.push_back(std::move(out.rows[i]));
        if (sort_keys != nullptr) {
          unique_keys.push_back(std::move((*sort_keys)[i]));
        }
      }
    }
    out.rows = std::move(unique);
    if (sort_keys != nullptr) *sort_keys = std::move(unique_keys);
  }
  return out;
}

Relation Executor::EvalCoreReference(
    const sql::SelectCore& core, ExecContext& ctx, bool aggregate_mode,
    const std::vector<sql::OrderItem>* order_by, std::vector<Row>* sort_keys) {
  Relation input;
  bool scanned_via_index = false;
  if (core.from && core.where &&
      core.from->kind == sql::TableRefKind::kBase) {
    // Index-scan pushdown: `FROM t WHERE col = <literal> [AND ...]` with
    // an index on col reads only the matching rows ("indexes ensure that
    // unnecessary scans will be avoided", paper SV-C).
    const std::string name = FoldIdentifier(core.from->table_name);
    if (!ctx.cte_bindings.contains(name) && !db_.HasView(name)) {
      if (const auto table = db_.FindTable(name)) {
        std::vector<const sql::Expr*> conjuncts;
        SplitConjuncts(*core.where, conjuncts);
        for (const sql::Expr* conjunct : conjuncts) {
          if (conjunct->kind != sql::ExprKind::kBinary ||
              conjunct->binary_op != sql::BinaryOp::kEq) {
            continue;
          }
          const sql::Expr* column = conjunct->left.get();
          const sql::Expr* literal = conjunct->right.get();
          if (column->kind != sql::ExprKind::kColumnRef) {
            std::swap(column, literal);
          }
          if (column->kind != sql::ExprKind::kColumnRef ||
              literal->kind != sql::ExprKind::kLiteral ||
              literal->literal.is_null()) {
            continue;
          }
          const std::string alias = FoldIdentifier(core.from->alias);
          if (!column->qualifier.empty() &&
              FoldIdentifier(column->qualifier) != alias) {
            continue;
          }
          const std::string col = FoldIdentifier(column->column);
          if (table->schema().FindColumn(col) < 0 ||
              !table->HasIndexOn(col)) {
            continue;
          }
          input.columns.reserve(table->schema().column_count());
          for (const auto& def : table->schema().columns()) {
            input.columns.push_back({alias, def.name});
          }
          for (const size_t row_id :
               table->IndexLookup(col, literal->literal)) {
            GovTick();
            input.rows.push_back(table->At(row_id));
            GovCharge(RowFootprintBytes(input.rows.back()));
          }
          rows_examined_ += input.rows.size();
          scanned_via_index = true;
          break;
        }
      }
    }
  }
  if (!scanned_via_index) {
    if (core.from) {
      input = EvalTableRef(*core.from, ctx);
    } else {
      input.rows.emplace_back();  // FROM-less SELECT produces one row
    }
  }

  if (core.where) {
    std::unordered_map<const sql::Expr*, int> cache;
    if (input.borrowed) {
      // Filtering a borrowed relation just drops views, no row copies.
      std::vector<const Row*> kept;
      kept.reserve(input.views.size());
      for (const Row* view : input.views) {
        GovTick();
        EvalContext ec{&input.columns, view, nullptr, nullptr, &cache};
        if (Truthy(Evaluate(*core.where, ec))) kept.push_back(view);
      }
      input.views = std::move(kept);
    } else {
      std::vector<Row> kept;
      kept.reserve(input.rows.size());
      for (Row& row : input.rows) {
        GovTick();
        EvalContext ec{&input.columns, &row, nullptr, nullptr, &cache};
        if (Truthy(Evaluate(*core.where, ec))) kept.push_back(std::move(row));
      }
      input.rows = std::move(kept);
    }
  }

  const auto source = [&](const BatchSink& sink) {
    FeedRelation(input, sink);
  };
  return aggregate_mode ? AggregateCore(core, input.columns, /*schema=*/nullptr,
                                        source, order_by, sort_keys)
                        : ProjectCore(core, input.columns, source, order_by,
                                      sort_keys);
}

void Executor::FeedRelation(const Relation& rel, const BatchSink& sink) {
  const size_t count = rel.row_count();
  for (size_t start = 0; start < count; start += RowBatch::kCapacity) {
    batch_.Reset();
    const size_t end = std::min(count, start + RowBatch::kCapacity);
    for (size_t i = start; i < end; ++i) batch_.rows[batch_.size++] = &rel.row(i);
    GovTickRows(batch_.size);
    batch_.SelectAll();
    sink(batch_);
  }
}

ResultSet Executor::EvalSelect(const sql::SelectStmt& stmt, ExecContext& ctx) {
  const bool single_core_sort =
      stmt.cores.size() == 1 && !stmt.order_by.empty();
  std::vector<Row> sort_keys;
  Relation combined =
      EvalCore(stmt.cores[0], ctx, single_core_sort ? &stmt.order_by : nullptr,
               single_core_sort ? &sort_keys : nullptr);
  for (size_t i = 1; i < stmt.cores.size(); ++i) {
    Relation next = EvalCore(stmt.cores[i], ctx);
    if (next.columns.size() != combined.columns.size()) {
      throw AnalysisError("UNION arms have different column counts (" +
                          std::to_string(combined.columns.size()) + " vs " +
                          std::to_string(next.columns.size()) + ")");
    }
    combined.rows.insert(combined.rows.end(),
                         std::make_move_iterator(next.rows.begin()),
                         std::make_move_iterator(next.rows.end()));
    if (stmt.set_ops[i - 1] == sql::SetOp::kUnion) {
      std::unordered_set<Row, KeyHash, KeyEq> seen;
      std::vector<Row> unique;
      unique.reserve(combined.rows.size());
      for (Row& row : combined.rows) {
        GovTick();
        if (seen.insert(row).second) unique.push_back(std::move(row));
      }
      combined.rows = std::move(unique);
    }
  }

  if (!stmt.order_by.empty()) {
    if (!single_core_sort) {
      // UNION result: ORDER BY resolves against the output columns only.
      std::vector<sql::ExprPtr> order_exprs;
      for (const auto& item : stmt.order_by) {
        order_exprs.push_back(
            RewriteOrderExpr(*item.expr, combined.columns, {}));
      }
      const auto bindings =
          CombinedOrderBindings(combined.columns.size(), 0);
      std::unordered_map<const sql::Expr*, int> cache;
      sort_keys.clear();
      sort_keys.reserve(combined.rows.size());
      for (const Row& row : combined.rows) {
        GovTick();
        EvalContext ec{&bindings, &row, nullptr, nullptr, &cache};
        Row key;
        key.reserve(order_exprs.size());
        for (const auto& expr : order_exprs) {
          key.push_back(Evaluate(*expr, ec));
        }
        sort_keys.push_back(std::move(key));
      }
    }
    std::vector<size_t> order(combined.rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         const int c = Value::Compare(sort_keys[a][i],
                                                      sort_keys[b][i]);
                         if (c != 0) {
                           return stmt.order_by[i].ascending ? c < 0 : c > 0;
                         }
                       }
                       return a < b;
                     });
    std::vector<Row> sorted;
    sorted.reserve(combined.rows.size());
    for (const size_t index : order) {
      sorted.push_back(std::move(combined.rows[index]));
    }
    combined.rows = std::move(sorted);
  }

  if (stmt.offset) {
    const auto skip = std::min(combined.rows.size(),
                               static_cast<size_t>(*stmt.offset));
    combined.rows.erase(combined.rows.begin(),
                        combined.rows.begin() + static_cast<ptrdiff_t>(skip));
  }
  if (stmt.limit && combined.rows.size() > static_cast<size_t>(*stmt.limit)) {
    combined.rows.resize(static_cast<size_t>(*stmt.limit));
  }
  return RelationToResult(std::move(combined));
}

// ---------------------------------------------------------------------------
// WITH (plain and recursive CTEs; iterative rejected — SQLoop's job)
// ---------------------------------------------------------------------------

ResultSet Executor::ExecWith(const sql::Statement& stmt, ExecContext& ctx) {
  const sql::WithClause& with = stmt.with;
  const std::string name = FoldIdentifier(with.name);

  switch (with.kind) {
    case sql::CteKind::kPlain: {
      Relation body = ResultToRelation(EvalSelect(*with.seed, ctx),
                                       /*qualifier=*/"");
      RenameColumns(body, with.columns);
      ctx.cte_bindings[name] = &body;
      ResultSet result = EvalSelect(*with.final_query, ctx);
      ctx.cte_bindings.erase(name);
      return result;
    }
    case sql::CteKind::kRecursive: {
      if (!db_.profile().supports_recursive_cte) {
        throw ExecutionError(
            "this engine version does not implement recursive CTE "
            "evaluation (use the SQLoop middleware)");
      }
      // Semi-naive evaluation (paper §II-A): the recursive member sees only
      // the delta of the previous round, and R accumulates all rows.
      Relation all = ResultToRelation(EvalSelect(*with.seed, ctx), "");
      RenameColumns(all, with.columns);
      Relation working = all;

      for (int64_t round = 0;; ++round) {
        if (round >= kMaxRecursions) {
          throw ExecutionError("recursive CTE '" + with.name +
                               "' exceeded the recursion limit");
        }
        if (working.rows.empty()) break;
        ctx.cte_bindings[name] = &working;
        Relation delta = ResultToRelation(EvalSelect(*with.step, ctx), "");
        ctx.cte_bindings.erase(name);
        if (delta.columns.size() != all.columns.size()) {
          throw AnalysisError(
              "recursive member of '" + with.name +
              "' produces a different column count than the seed");
        }
        delta.columns = all.columns;
        // The accumulated relation copies the delta; deep row bytes were
        // already charged when EvalSelect produced them, so charge the
        // shallow copy and give the governor a per-round check.
        GovTick();
        GovCharge(static_cast<int64_t>(delta.rows.size() * sizeof(Row)));
        all.rows.insert(all.rows.end(), delta.rows.begin(), delta.rows.end());
        working = std::move(delta);
      }

      ctx.cte_bindings[name] = &all;
      ResultSet result = EvalSelect(*with.final_query, ctx);
      ctx.cte_bindings.erase(name);
      return result;
    }
    case sql::CteKind::kIterative:
      throw ExecutionError(
          "iterative CTEs are a SQLoop extension; submit this query "
          "through the SQLoop middleware, not directly to the engine");
  }
  throw UsageError("unknown CTE kind");
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

void Executor::CheckDialect(const sql::Statement& stmt) const {
  const EngineProfile& profile = db_.profile();
  if (!profile.strict_dialect) return;
  if (stmt.kind != sql::StatementKind::kCreateTable) return;

  if (profile.dialect == Dialect::kPostgres) {
    if (!stmt.engine_option.empty()) {
      throw ExecutionError("syntax error: ENGINE table options are not "
                           "supported by the postgres engine");
    }
    for (const auto& column : stmt.columns) {
      if (column.type_spelling == "DOUBLE") {
        throw ExecutionError("type \"DOUBLE\" does not exist in the postgres "
                             "engine; use DOUBLE PRECISION");
      }
    }
  } else if (IsMySqlFamily(profile.dialect)) {
    if (stmt.unlogged) {
      throw ExecutionError("syntax error: UNLOGGED tables are "
                           "PostgreSQL-specific; use ENGINE=MyISAM");
    }
  }
}

ResultSet Executor::ExecCreateTable(const sql::Statement& stmt) {
  CheckDialect(stmt);
  std::vector<Column> columns;
  columns.reserve(stmt.columns.size());
  for (const auto& def : stmt.columns) {
    columns.push_back({FoldIdentifier(def.name), def.type});
  }
  db_.CreateTable(stmt.table_name, Schema(std::move(columns),
                                          stmt.primary_key_index),
                  stmt.if_not_exists);
  return {};
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

void Executor::BackupForTransaction(Session* session, Table& table) {
  if (session == nullptr || !session->in_transaction_) return;
  session->backups_.try_emplace(table.name(), table.SnapshotRows());
}

std::vector<Row> Executor::SelectForInsert(const sql::Statement& stmt,
                                          ExecContext& ctx) {
  // The source SELECT fully materializes (EvalSelect returns owned rows)
  // before the first Insert call — Insert can grow the table's row
  // vector, which would invalidate any borrowed views into it.
  ResultSet selected = EvalSelect(*stmt.insert_select, ctx);
  return std::move(selected.rows);
}

ResultSet Executor::ExecInsert(const sql::Statement& stmt, Session* session,
                               std::vector<Row>* selected) {
  const auto table = db_.FindTable(stmt.table_name);
  if (!table) {
    throw ExecutionError("table '" + stmt.table_name + "' does not exist");
  }
  const Schema& schema = table->schema();

  // Map the statement's column list (or schema order) to schema positions.
  std::vector<int> positions;
  if (stmt.insert_columns.empty()) {
    positions.resize(schema.column_count());
    for (size_t i = 0; i < positions.size(); ++i) {
      positions[i] = static_cast<int>(i);
    }
  } else {
    for (const auto& column : stmt.insert_columns) {
      const int index = schema.FindColumn(column);
      if (index < 0) {
        throw ExecutionError("no column '" + column + "' in table '" +
                             stmt.table_name + "'");
      }
      positions.push_back(index);
    }
  }

  std::vector<Row> incoming;
  if (selected != nullptr) {
    incoming = std::move(*selected);
  } else if (stmt.insert_select) {
    ExecContext ctx;
    incoming = SelectForInsert(stmt, ctx);
  } else {
    EvalContext ec;  // VALUES expressions see no input columns
    for (const auto& row_exprs : stmt.insert_rows) {
      GovTick();
      Row row;
      row.reserve(row_exprs.size());
      for (const auto& expr : row_exprs) row.push_back(Evaluate(*expr, ec));
      GovCharge(RowFootprintBytes(row));
      incoming.push_back(std::move(row));
    }
  }

  BackupForTransaction(session, *table);
  size_t inserted = 0;
  for (Row& source : incoming) {
    if (source.size() != positions.size()) {
      throw ExecutionError("INSERT supplies " +
                           std::to_string(source.size()) + " values for " +
                           std::to_string(positions.size()) + " columns");
    }
    Row full(schema.column_count());
    for (size_t i = 0; i < positions.size(); ++i) {
      full[positions[i]] = std::move(source[i]);
    }
    table->Insert(std::move(full));
    ++inserted;
  }
  ResultSet result;
  result.affected_rows = inserted;
  return result;
}

ResultSet Executor::ExecUpdate(const sql::Statement& stmt, Session* session,
                               ExecContext& ctx, Relation* evaluated_from) {
  const auto table = db_.FindTable(stmt.table_name);
  if (!table) {
    throw ExecutionError("table '" + stmt.table_name + "' does not exist");
  }
  const Schema& schema = table->schema();
  const std::string alias = FoldIdentifier(
      stmt.update_alias.empty() ? stmt.table_name : stmt.update_alias);

  std::vector<ColumnBinding> target_columns;
  target_columns.reserve(schema.column_count());
  for (const auto& column : schema.columns()) {
    target_columns.push_back({alias, column.name});
  }

  // Resolve SET targets once.
  std::vector<int> set_positions;
  set_positions.reserve(stmt.set_items.size());
  for (const auto& [column, expr] : stmt.set_items) {
    const int index = schema.FindColumn(column);
    if (index < 0) {
      throw ExecutionError("no column '" + column + "' in table '" +
                           stmt.table_name + "'");
    }
    set_positions.push_back(index);
  }

  std::vector<std::pair<size_t, Row>> pending;  // (row id, new row)
  std::unordered_map<const sql::Expr*, int> cache;

  if (stmt.update_from) {
    // UPDATE ... FROM <source>: match each target row against the source,
    // hash-accelerated on the first target=source equi conjunct.
    Relation source = evaluated_from != nullptr
                          ? std::move(*evaluated_from)
                          : EvalTableRef(*stmt.update_from, ctx);

    std::vector<ColumnBinding> combined = target_columns;
    combined.insert(combined.end(), source.columns.begin(),
                    source.columns.end());

    std::vector<const sql::Expr*> conjuncts;
    if (stmt.where) SplitConjuncts(*stmt.where, conjuncts);

    int target_key = -1;
    int source_key = -1;
    std::vector<const sql::Expr*> residual;
    for (const sql::Expr* conjunct : conjuncts) {
      if (target_key < 0 && conjunct->kind == sql::ExprKind::kBinary &&
          conjunct->binary_op == sql::BinaryOp::kEq &&
          conjunct->left->kind == sql::ExprKind::kColumnRef &&
          conjunct->right->kind == sql::ExprKind::kColumnRef) {
        const sql::Expr& a = *conjunct->left;
        const sql::Expr& b = *conjunct->right;
        const int at = TryResolveColumn(target_columns, a.qualifier, a.column);
        const int bs = TryResolveColumn(source.columns, b.qualifier, b.column);
        if (at >= 0 && bs >= 0) {
          target_key = at;
          source_key = bs;
          continue;
        }
        const int bt = TryResolveColumn(target_columns, b.qualifier, b.column);
        const int as = TryResolveColumn(source.columns, a.qualifier, a.column);
        if (bt >= 0 && as >= 0) {
          target_key = bt;
          source_key = as;
          continue;
        }
      }
      residual.push_back(conjunct);
    }

    // `source` may hold borrowed views into the target table itself
    // (UPDATE t ... FROM t AS s). All matching reads finish before the
    // pending writes apply, and Table::Update assigns slots in place, so
    // the views stay valid for the whole match phase.
    std::unordered_multimap<Value, size_t, ValueKeyHash, ValueKeyEq> by_key;
    if (target_key >= 0) {
      by_key.reserve(source.row_count());
      for (size_t i = 0; i < source.row_count(); ++i) {
        GovTick();
        const Value& key = source.row(i)[source_key];
        if (!key.is_null()) by_key.emplace(key, i);
      }
    }

    PinScope::Window window;
    for (size_t row_id = 0; row_id < table->slot_count(); ++row_id) {
      if ((row_id & kPageRowMask) == 0) window.Reset();
      if (!table->IsLive(row_id)) continue;
      ++rows_examined_;
      GovTick();
      const Row& current = table->At(row_id);

      const auto try_match = [&](const Row& source_row) -> bool {
        Row combined_row = ConcatRows(current, source_row);
        EvalContext ec{&combined, &combined_row, nullptr, nullptr, &cache};
        if (!ResidualHolds(residual, ec)) return false;
        Row updated = current;
        for (size_t i = 0; i < stmt.set_items.size(); ++i) {
          updated[set_positions[i]] =
              Evaluate(*stmt.set_items[i].second, ec);
        }
        schema.CoerceRow(updated);
        bool changed = false;
        for (size_t i = 0; i < updated.size(); ++i) {
          if (!Value::KeyEquals(updated[i], current[i])) {
            changed = true;
            break;
          }
        }
        if (changed) {
          GovCharge(RowFootprintBytes(updated));
          pending.emplace_back(row_id, std::move(updated));
        }
        return true;
      };

      if (target_key >= 0) {
        const Value& key = current[target_key];
        if (key.is_null()) continue;
        const auto [begin, end] = by_key.equal_range(key);
        for (auto it = begin; it != end; ++it) {
          if (try_match(source.row(it->second))) break;  // first match wins
        }
      } else {
        for (size_t i = 0; i < source.row_count(); ++i) {
          if (try_match(source.row(i))) break;
        }
      }
    }
  } else {
    PinScope::Window window;
    for (size_t row_id = 0; row_id < table->slot_count(); ++row_id) {
      if ((row_id & kPageRowMask) == 0) window.Reset();
      if (!table->IsLive(row_id)) continue;
      ++rows_examined_;
      GovTick();
      const Row& current = table->At(row_id);
      EvalContext ec{&target_columns, &current, nullptr, nullptr, &cache};
      if (stmt.where && !Truthy(Evaluate(*stmt.where, ec))) continue;
      Row updated = current;
      for (size_t i = 0; i < stmt.set_items.size(); ++i) {
        updated[set_positions[i]] = Evaluate(*stmt.set_items[i].second, ec);
      }
      schema.CoerceRow(updated);
      bool changed = false;
      for (size_t i = 0; i < updated.size(); ++i) {
        if (!Value::KeyEquals(updated[i], current[i])) {
          changed = true;
          break;
        }
      }
      if (changed) {
        GovCharge(RowFootprintBytes(updated));
        pending.emplace_back(row_id, std::move(updated));
      }
    }
  }

  BackupForTransaction(session, *table);
  for (auto& [row_id, row] : pending) {
    table->Update(row_id, std::move(row));
  }
  ResultSet result;
  result.affected_rows = pending.size();
  return result;
}

ResultSet Executor::ExecDelete(const sql::Statement& stmt, Session* session) {
  const auto table = db_.FindTable(stmt.table_name);
  if (!table) {
    throw ExecutionError("table '" + stmt.table_name + "' does not exist");
  }
  const std::string alias = FoldIdentifier(stmt.table_name);
  std::vector<ColumnBinding> columns;
  for (const auto& column : table->schema().columns()) {
    columns.push_back({alias, column.name});
  }
  std::vector<size_t> doomed;
  std::unordered_map<const sql::Expr*, int> cache;
  PinScope::Window window;
  for (size_t row_id = 0; row_id < table->slot_count(); ++row_id) {
    if ((row_id & kPageRowMask) == 0) window.Reset();
    if (!table->IsLive(row_id)) continue;
    ++rows_examined_;
    GovTick();
    if (stmt.where) {
      const Row& row = table->At(row_id);
      EvalContext ec{&columns, &row, nullptr, nullptr, &cache};
      if (!Truthy(Evaluate(*stmt.where, ec))) continue;
    }
    doomed.push_back(row_id);
  }
  BackupForTransaction(session, *table);
  for (const size_t row_id : doomed) table->Delete(row_id);
  ResultSet result;
  result.affected_rows = doomed.size();
  return result;
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

ResultSet Executor::ExecTransaction(const sql::Statement& stmt,
                                    Session* session) {
  if (session == nullptr) {
    throw UsageError("transaction statements require a session");
  }
  switch (stmt.kind) {
    case sql::StatementKind::kBegin:
      if (session->in_transaction_) {
        throw ExecutionError("a transaction is already in progress");
      }
      session->in_transaction_ = true;
      session->backups_.clear();
      return {};
    case sql::StatementKind::kCommit:
      session->in_transaction_ = false;
      session->backups_.clear();
      return {};
    case sql::StatementKind::kRollback: {
      for (auto& [name, rows] : session->backups_) {
        const auto table = db_.FindTable(name);
        if (!table) continue;  // dropped mid-transaction; nothing to restore
        const std::scoped_lock lock(table->lock());
        table->RestoreRows(rows);
      }
      session->in_transaction_ = false;
      session->backups_.clear();
      return {};
    }
    default:
      throw UsageError("not a transaction statement");
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

ResultSet Executor::Execute(const sql::Statement& stmt, Session* session) {
  return ExecuteWithPlan(stmt, BuildLockPlan(stmt), session);
}

ResultSet Executor::ExecuteWithPlan(const sql::Statement& stmt,
                                    const LockPlan& plan, Session* session) {
  rows_examined_ = 0;
  counters_ = {};
  GovBeginStatement();
  // Statement pin ledger: every paged row view the engine hands out below
  // is backed by a page pinned here (scan windows release early; anything
  // left drains when the scope dies with the statement).
  PinScope pin_scope;
  ResultSet result;
  try {
    result = ExecuteInternal(stmt, plan, session);
  } catch (...) {
    // Statement-scope teardown: the whole transient reservation returns to
    // the tracker chain, so an aborted statement frees its working set.
    GovEndStatement();
    throw;
  }
  GovEndStatement();
  result.rows_examined = rows_examined_;
  SQLOOP_COUNT(recorder_, "minidb.rows_examined", rows_examined_);
  // Engine counters flush only when nonzero so statements that never touch
  // the SELECT pipeline don't mint empty counter entries.
  if (counters_.rows_materialized != 0) {
    SQLOOP_COUNT(recorder_, "minidb.rows_materialized",
                 counters_.rows_materialized);
  }
  if (counters_.rows_borrowed != 0) {
    SQLOOP_COUNT(recorder_, "minidb.rows_borrowed", counters_.rows_borrowed);
  }
  if (counters_.index_scans != 0) {
    SQLOOP_COUNT(recorder_, "minidb.index_scans", counters_.index_scans);
  }
  if (counters_.full_scans != 0) {
    SQLOOP_COUNT(recorder_, "minidb.full_scans", counters_.full_scans);
  }
  if (counters_.pushed_predicates != 0) {
    SQLOOP_COUNT(recorder_, "minidb.pushed_predicates",
                 counters_.pushed_predicates);
  }
  if (counters_.batches_produced != 0) {
    SQLOOP_COUNT(recorder_, "minidb.batches_produced",
                 counters_.batches_produced);
  }
  if (counters_.vectorized_cores != 0) {
    SQLOOP_COUNT(recorder_, "minidb.vectorized_cores",
                 counters_.vectorized_cores);
  }
  if (counters_.scalar_fallbacks != 0) {
    SQLOOP_COUNT(recorder_, "minidb.scalar_fallbacks",
                 counters_.scalar_fallbacks);
  }
  // Buffer-pool deltas: the pool's counters are pool-lifetime, so each
  // statement flushes only what it moved. Unbounded pools never pin or
  // evict — skip the stats lock entirely.
  if (db_.buffer_pool().bounded()) {
    const BufferPool::Stats pool = db_.buffer_pool().stats();
    const auto flush = [this](const char* name, uint64_t now,
                              uint64_t& last) {
      if (now != last) {
        SQLOOP_COUNT(recorder_, name, static_cast<int64_t>(now - last));
        last = now;
      }
    };
    flush("minidb.pool_hits", pool.hits, pool_last_.hits);
    flush("minidb.pool_misses", pool.misses, pool_last_.misses);
    flush("minidb.pages_evicted", pool.pages_evicted,
          pool_last_.pages_evicted);
    flush("minidb.bytes_spilled", pool.bytes_spilled,
          pool_last_.bytes_spilled);
  }
  return result;
}

LockPlan Executor::BuildLockPlan(const sql::Statement& stmt) const {
  LockPlan plan;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      TableCollector collector(db_);
      collector.FromSelect(*stmt.select, {});
      collector.Collect(plan, {});
      break;
    }
    case sql::StatementKind::kWith: {
      TableCollector collector(db_);
      const std::set<std::string> ctes = {FoldIdentifier(stmt.with.name)};
      collector.FromSelect(*stmt.with.seed, ctes);
      if (stmt.with.step) collector.FromSelect(*stmt.with.step, ctes);
      if (stmt.with.termination.probe) {
        collector.FromSelect(*stmt.with.termination.probe, ctes);
      }
      collector.FromSelect(*stmt.with.final_query, ctes);
      collector.Collect(plan, {});
      break;
    }
    case sql::StatementKind::kInsert: {
      TableCollector collector(db_);
      if (stmt.insert_select) collector.FromSelect(*stmt.insert_select, {});
      const std::string target = FoldIdentifier(stmt.table_name);
      collector.Collect(plan, {target});
      plan.phased = stmt.insert_select != nullptr && !collector.Reads(target);
      break;
    }
    case sql::StatementKind::kUpdate: {
      TableCollector collector(db_);
      if (stmt.update_from) collector.FromTableRef(*stmt.update_from, {});
      const std::string target = FoldIdentifier(stmt.table_name);
      collector.Collect(plan, {target});
      // Only a derived-table source: its rows are owned already, where a
      // base table's borrowed rows would have to be copied out first.
      plan.phased = stmt.update_from != nullptr &&
                    stmt.update_from->kind == sql::TableRefKind::kSubquery &&
                    !collector.Reads(target);
      break;
    }
    case sql::StatementKind::kDelete:
      plan.entries.emplace_back(FoldIdentifier(stmt.table_name),
                                /*write=*/true);
      break;
    default:
      // DDL, TRUNCATE and transaction statements lock inside their own
      // execution paths; nothing to precompute.
      break;
  }
  return plan;
}

ResultSet Executor::ExecuteInternal(const sql::Statement& stmt,
                                    const LockPlan& plan, Session* session) {
  ExecContext ctx;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      LockSet locks(recorder_);
      ApplyLockPlan(locks, db_, plan);
      locks.AcquireAll();
      return EvalSelect(*stmt.select, ctx);
    }
    case sql::StatementKind::kWith: {
      LockSet locks(recorder_);
      ApplyLockPlan(locks, db_, plan);
      locks.AcquireAll();
      return ExecWith(stmt, ctx);
    }
    case sql::StatementKind::kCreateTable:
      return ExecCreateTable(stmt);
    case sql::StatementKind::kDropTable:
      db_.DropTable(stmt.table_name, stmt.if_exists);
      return {};
    case sql::StatementKind::kCreateIndex: {
      const auto table = db_.FindTable(stmt.table_name);
      if (!table) {
        throw ExecutionError("table '" + stmt.table_name +
                             "' does not exist");
      }
      {
        const std::scoped_lock lock(table->lock());
        table->CreateIndex(stmt.index_name, stmt.index_columns.at(0));
      }
      // Index DDL bypasses the Database catalog methods, so the version
      // bump that invalidates bound plans happens here.
      db_.BumpCatalogVersion();
      return {};
    }
    case sql::StatementKind::kDropIndex: {
      if (!stmt.table_name.empty()) {
        const auto table = db_.FindTable(stmt.table_name);
        if (!table) {
          throw ExecutionError("table '" + stmt.table_name +
                               "' does not exist");
        }
        bool dropped;
        {
          const std::scoped_lock lock(table->lock());
          dropped = table->DropIndex(stmt.index_name);
        }
        if (dropped) {
          db_.BumpCatalogVersion();
        } else if (!stmt.if_exists) {
          throw ExecutionError("index '" + stmt.index_name +
                               "' does not exist");
        }
        return {};
      }
      for (const auto& name : db_.TableNames()) {
        const auto table = db_.FindTable(name);
        if (!table) continue;
        bool dropped;
        {
          const std::scoped_lock lock(table->lock());
          dropped = table->DropIndex(stmt.index_name);
        }
        if (dropped) {
          db_.BumpCatalogVersion();
          return {};
        }
      }
      if (!stmt.if_exists) {
        throw ExecutionError("index '" + stmt.index_name +
                             "' does not exist");
      }
      return {};
    }
    case sql::StatementKind::kCreateView:
      db_.CreateView(stmt.table_name, stmt.view_select->Clone());
      return {};
    case sql::StatementKind::kDropView:
      db_.DropView(stmt.table_name, stmt.if_exists);
      return {};
    case sql::StatementKind::kInsert: {
      if (plan.phased) {
        std::vector<Row> selected;
        {
          LockSet reads(recorder_);
          FindEmptyCores(*stmt.insert_select, ctx);
          if (ctx.empty_cores.empty()) {
            ApplyLockPlan(reads, db_, plan, LockPhase::kReads);
          } else {
            // Tables only empty cores read need no lock at all.
            TableCollector collector(db_, &ctx.empty_cores);
            collector.FromSelect(*stmt.insert_select, {});
            LockPlan narrowed;
            collector.Collect(narrowed, {});
            ApplyLockPlan(reads, db_, narrowed);
          }
          reads.AcquireAll();
          selected = SelectForInsert(stmt, ctx);
        }
        LockSet writes(recorder_);
        ApplyLockPlan(writes, db_, plan, LockPhase::kWrites);
        writes.AcquireAll();
        return ExecInsert(stmt, session, &selected);
      }
      LockSet locks(recorder_);
      ApplyLockPlan(locks, db_, plan);
      locks.AcquireAll();
      return ExecInsert(stmt, session);
    }
    case sql::StatementKind::kUpdate: {
      if (plan.phased) {
        Relation source;
        {
          LockSet reads(recorder_);
          ApplyLockPlan(reads, db_, plan, LockPhase::kReads);
          reads.AcquireAll();
          source = EvalTableRef(*stmt.update_from, ctx);
        }
        LockSet writes(recorder_);
        ApplyLockPlan(writes, db_, plan, LockPhase::kWrites);
        writes.AcquireAll();
        return ExecUpdate(stmt, session, ctx, &source);
      }
      LockSet locks(recorder_);
      ApplyLockPlan(locks, db_, plan);
      locks.AcquireAll();
      return ExecUpdate(stmt, session, ctx);
    }
    case sql::StatementKind::kDelete: {
      LockSet locks(recorder_);
      ApplyLockPlan(locks, db_, plan);
      locks.AcquireAll();
      return ExecDelete(stmt, session);
    }
    case sql::StatementKind::kTruncate: {
      const auto table = db_.FindTable(stmt.table_name);
      if (!table) {
        throw ExecutionError("table '" + stmt.table_name +
                             "' does not exist");
      }
      const std::scoped_lock lock(table->lock());
      BackupForTransaction(session, *table);
      const size_t removed = table->live_row_count();
      table->Clear();
      ResultSet result;
      result.affected_rows = removed;
      return result;
    }
    case sql::StatementKind::kDumpTable: {
      const auto table = db_.FindTable(stmt.table_name);
      if (!table) {
        throw ExecutionError("table '" + stmt.table_name +
                             "' does not exist");
      }
      // A shared lock suffices: the dump only reads. Writers are excluded
      // for the duration, so the file is a consistent snapshot.
      const std::shared_lock lock(table->lock());
      if (table->quarantined()) {
        throw IntegrityError("refusing to dump quarantined table '" +
                             stmt.table_name + "'");
      }
      ResultSet result;
      result.affected_rows = DumpTableToFile(*table, stmt.file_path);
      result.rows_examined = table->live_row_count();
      return result;
    }
    case sql::StatementKind::kRestoreTable: {
      // Create-or-replace from the dumped schema; rows re-inserted in
      // dumped order rebuild the table bit-identically (scan order, PK
      // index). Validation happens in ReadDumpFile before any catalog
      // change, so a corrupt dump leaves the database untouched.
      DumpContents contents = ReadDumpFile(stmt.file_path);
      // Governor pass over the materialized dump BEFORE any catalog
      // change: a quota breach or cancel aborts with the database
      // untouched (the restore loop below is write-apply and never ticks).
      for (const Row& row : contents.rows) {
        GovTick();
        GovCharge(RowFootprintBytes(row));
      }
      GovFlush();  // enforce the full dump size before mutating
      db_.DropTable(stmt.table_name, /*if_exists=*/true);
      db_.CreateTable(stmt.table_name, contents.schema,
                      /*if_not_exists=*/false);
      const auto table = db_.FindTable(stmt.table_name);
      const std::scoped_lock lock(table->lock());
      for (auto& row : contents.rows) table->Insert(std::move(row));
      ResultSet result;
      result.affected_rows = contents.rows.size();
      return result;
    }
    case sql::StatementKind::kCheckTable: {
      // The scrub primitive: recompute the table's content checksum from
      // the live rows and compare it to the incrementally-maintained one.
      // A mismatch quarantines the table (every later statement touching
      // it fails at the lock fence) and raises IntegrityError — corruption
      // is never allowed to become a silently wrong result.
      const auto table = db_.FindTable(stmt.table_name);
      if (!table) {
        throw ExecutionError("table '" + stmt.table_name +
                             "' does not exist");
      }
      const std::shared_lock lock(table->lock());
      SQLOOP_COUNT(recorder_, "minidb.scrub_checks", 1);
      if (table->quarantined()) {
        SQLOOP_COUNT(recorder_, "minidb.scrub_failures", 1);
        throw IntegrityError("table '" + stmt.table_name +
                             "' is already quarantined");
      }
      uint64_t expected = 0;
      uint64_t actual = 0;
      if (!table->VerifyContent(&expected, &actual)) {
        table->set_quarantined(true);
        SQLOOP_COUNT(recorder_, "minidb.scrub_failures", 1);
        char expected_hex[17];
        char actual_hex[17];
        std::snprintf(expected_hex, sizeof(expected_hex), "%016llx",
                      static_cast<unsigned long long>(expected));
        std::snprintf(actual_hex, sizeof(actual_hex), "%016llx",
                      static_cast<unsigned long long>(actual));
        throw IntegrityError(
            "table '" + stmt.table_name +
            "' failed its content checksum: maintained 0x" + expected_hex +
            ", recomputed 0x" + actual_hex + " over " +
            std::to_string(table->live_row_count()) +
            " live rows; table quarantined");
      }
      ResultSet result;
      result.columns = {"table", "status", "rows"};
      result.rows.push_back({Value(stmt.table_name), Value("ok"),
                             Value(static_cast<int64_t>(
                                 table->live_row_count()))});
      result.rows_examined = table->live_row_count();
      return result;
    }
    case sql::StatementKind::kChecksumTable: {
      // O(1) change probe: report the incrementally-maintained checksum
      // without touching a single row (so a spilled table stays spilled).
      // Checkpointing compares it to the last sealed round's value to skip
      // re-dumping unchanged tables.
      const auto table = db_.FindTable(stmt.table_name);
      if (!table) {
        throw ExecutionError("table '" + stmt.table_name +
                             "' does not exist");
      }
      const std::shared_lock lock(table->lock());
      if (table->quarantined()) {
        throw IntegrityError("refusing to checksum quarantined table '" +
                             stmt.table_name + "'");
      }
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(table->content_hash()));
      ResultSet result;
      result.columns = {"table", "checksum", "rows"};
      result.rows.push_back(
          {Value(stmt.table_name), Value(std::string("0x") + hex),
           Value(static_cast<int64_t>(table->live_row_count()))});
      return result;
    }
    case sql::StatementKind::kBegin:
    case sql::StatementKind::kCommit:
    case sql::StatementKind::kRollback:
      return ExecTransaction(stmt, session);
  }
  throw UsageError("unknown statement kind");
}

ParsedStatement ParseCounted(std::string_view text,
                             telemetry::Recorder* recorder) {
  SQLOOP_COUNT(recorder, "sql.parse_count", 1);
#if SQLOOP_TELEMETRY_ENABLED
  const Stopwatch parse_watch;
#endif
  ParsedStatement parsed;
  parsed.ast = sql::ParseStatement(text);
  SQLOOP_TIME_SECONDS(recorder, "sql.parse_seconds",
                      parse_watch.ElapsedSeconds());
  int max_param = -1;
  sql::VisitStatementExprs(*parsed.ast, [&max_param](const sql::Expr& expr) {
    if (expr.kind == sql::ExprKind::kParameter) {
      max_param = std::max(max_param, expr.param_index);
    }
  });
  parsed.param_count = max_param + 1;
  return parsed;
}

ResultSet Executor::ExecuteSql(std::string_view text, Session* session) {
  if (db_.plan_cache().enabled()) {
    const auto plan = Prepare(text);
    ResultSet result = ExecuteWithPlan(*plan->ast, *plan->locks, session);
    result.compiled = last_prepare_parsed_;
    return result;
  }
  // Ablation path (--no-plan-cache): the pre-cache cost model — every
  // statement pays a full parse.
  const ParsedStatement parsed = ParseCounted(text, recorder_);
  ResultSet result = Execute(*parsed.ast, session);
  result.compiled = true;
  return result;
}

std::shared_ptr<const CachedPlan> Executor::Rebind(const CachedPlan& stale,
                                                   uint64_t version) {
  // The catalog changed since this plan was bound: the parse stays valid
  // (text -> AST is a pure function), only the bind layer — lock set and
  // view expansion — is recomputed.
  auto rebound = std::make_shared<CachedPlan>();
  rebound->ast = stale.ast;
  rebound->param_count = stale.param_count;
  rebound->locks = std::make_shared<const LockPlan>(BuildLockPlan(*stale.ast));
  rebound->bound_version = version;
  db_.plan_cache().NoteRebind();
  SQLOOP_COUNT(recorder_, "minidb.plan_rebinds", 1);
  return rebound;
}

std::shared_ptr<const CachedPlan> Executor::Prepare(std::string_view text,
                                                    bool pin) {
  PlanCache& cache = db_.plan_cache();
  if (!cache.enabled()) {
    throw UsageError("Prepare requires the plan cache to be enabled");
  }
  last_prepare_parsed_ = false;
  const uint64_t version = db_.catalog_version();
  std::string raw(text);
  if (const auto it = local_plans_.find(raw); it != local_plans_.end()) {
    // Hot path: this connection has executed the exact text before. No
    // shared state is touched unless the catalog moved underneath us.
    SQLOOP_COUNT(recorder_, "minidb.plan_cache_hits", 1);
    cache.NoteLocalHit();
    if (it->second->bound_version != version) {
      it->second = Rebind(*it->second, version);
    }
    return it->second;
  }
  const std::string key =
      db_.profile().name + '\x1f' + NormalizeSqlKey(text);
  if (auto entry = cache.Lookup(key)) {
    SQLOOP_COUNT(recorder_, "minidb.plan_cache_hits", 1);
    if (entry->bound_version != version) {
      // Shared back, so the next connection to look the text up under
      // this catalog version finds it bound already.
      entry = Rebind(*entry, version);
      cache.Put(key, entry);
    }
    if (local_plans_.size() >= kLocalPlanCapacity) local_plans_.clear();
    local_plans_.emplace(std::move(raw), entry);
    return entry;
  }
  SQLOOP_COUNT(recorder_, "minidb.plan_cache_misses", 1);
  last_prepare_parsed_ = true;
  auto plan = std::make_shared<CachedPlan>();
  ParsedStatement parsed = ParseCounted(text, recorder_);
  plan->param_count = parsed.param_count;
  plan->ast = std::move(parsed.ast);
  plan->locks = std::make_shared<const LockPlan>(BuildLockPlan(*plan->ast));
  plan->bound_version = version;
  if (pin || first_misses_.erase(key) > 0) {
    cache.Put(key, plan);
    if (local_plans_.size() >= kLocalPlanCapacity) local_plans_.clear();
    local_plans_.emplace(std::move(raw), plan);
  } else {
    if (first_misses_.size() >= kLocalPlanCapacity) first_misses_.clear();
    first_misses_.insert(key);
  }
  return plan;
}

}  // namespace sqloop::minidb
