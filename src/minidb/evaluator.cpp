#include "minidb/evaluator.h"

#include <cmath>

#include "common/error.h"

namespace sqloop::minidb {

void Relation::Materialize() {
  if (!borrowed) return;
  rows.reserve(views.size());
  for (const Row* view : views) rows.push_back(*view);
  views.clear();
  views.shrink_to_fit();
  borrowed = false;
}

namespace {

[[noreturn]] void TypeFail(const std::string& what, const Value& a,
                           const Value& b) {
  throw ExecutionError("cannot apply " + what + " to " +
                       std::string(ValueTypeName(a.type())) + " and " +
                       std::string(ValueTypeName(b.type())));
}

/// BIGINT addition in two's complement (SUM's running total): signed
/// overflow is undefined, so the add runs on uint64_t.
int64_t WrapAdd(int64_t a, int64_t b) noexcept {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

Value Arithmetic(sql::BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    TypeFail(sql::BinaryOpName(op), a, b);
  }
  const bool ints = a.is_int() && b.is_int();
  // BIGINT + - * wrap in two's complement: computed on uint64_t, where
  // overflow is defined, and cast back (signed overflow is undefined).
  const auto ua = static_cast<uint64_t>(ints ? a.as_int() : 0);
  const auto ub = static_cast<uint64_t>(ints ? b.as_int() : 0);
  switch (op) {
    case sql::BinaryOp::kAdd:
      if (ints) return Value(static_cast<int64_t>(ua + ub));
      return Value(a.NumericAsDouble() + b.NumericAsDouble());
    case sql::BinaryOp::kSub:
      if (ints) return Value(static_cast<int64_t>(ua - ub));
      return Value(a.NumericAsDouble() - b.NumericAsDouble());
    case sql::BinaryOp::kMul:
      if (ints) return Value(static_cast<int64_t>(ua * ub));
      return Value(a.NumericAsDouble() * b.NumericAsDouble());
    case sql::BinaryOp::kDiv:
      if (ints) {
        if (b.as_int() == 0) throw ExecutionError("integer division by zero");
        // INT64_MIN / -1 overflows (and traps on x86): wrap like `-`.
        if (b.as_int() == -1) return Value(static_cast<int64_t>(0 - ua));
        return Value(a.as_int() / b.as_int());
      }
      return Value(a.NumericAsDouble() / b.NumericAsDouble());
    case sql::BinaryOp::kMod:
      if (!ints) TypeFail("%", a, b);
      if (b.as_int() == 0) throw ExecutionError("modulo by zero");
      if (b.as_int() == -1) return Value(int64_t{0});  // as for `/`
      return Value(a.as_int() % b.as_int());
    default:
      break;
  }
  throw UsageError("non-arithmetic operator in Arithmetic()");
}

Value Comparison(sql::BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.is_numeric() != b.is_numeric()) {
    TypeFail(sql::BinaryOpName(op), a, b);
  }
  const int c = Value::Compare(a, b);
  bool result = false;
  switch (op) {
    case sql::BinaryOp::kEq: result = c == 0; break;
    case sql::BinaryOp::kNotEq: result = c != 0; break;
    case sql::BinaryOp::kLess: result = c < 0; break;
    case sql::BinaryOp::kLessEq: result = c <= 0; break;
    case sql::BinaryOp::kGreater: result = c > 0; break;
    case sql::BinaryOp::kGreaterEq: result = c >= 0; break;
    default:
      throw UsageError("non-comparison operator in Comparison()");
  }
  return Value(int64_t{result ? 1 : 0});
}

// Kleene three-valued AND/OR over {false, true, unknown(NULL)}.
Value Logical(sql::BinaryOp op, const Value& a, const Value& b) {
  const auto truth = [](const Value& v) -> int {  // 0, 1, or -1 (unknown)
    if (v.is_null()) return -1;
    if (!v.is_numeric()) {
      throw ExecutionError("boolean operator applied to TEXT value");
    }
    return v.NumericAsDouble() != 0 ? 1 : 0;
  };
  const int ta = truth(a);
  const int tb = truth(b);
  if (op == sql::BinaryOp::kAnd) {
    if (ta == 0 || tb == 0) return Value(int64_t{0});
    if (ta == -1 || tb == -1) return Value::Null();
    return Value(int64_t{1});
  }
  if (ta == 1 || tb == 1) return Value(int64_t{1});
  if (ta == -1 || tb == -1) return Value::Null();
  return Value(int64_t{0});
}

Value EvalFunction(const sql::Expr& expr, const EvalContext& ctx) {
  const std::string& name = expr.function_name;
  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const auto& arg : expr.args) args.push_back(Evaluate(*arg, ctx));

  if (name == "COALESCE") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (name == "LEAST" || name == "GREATEST") {
    // PostgreSQL semantics: NULL inputs are ignored; all-NULL gives NULL.
    Value best;
    const bool want_least = name == "LEAST";
    for (const Value& v : args) {
      if (v.is_null()) continue;
      if (best.is_null()) {
        best = v;
        continue;
      }
      const int c = Value::Compare(v, best);
      if ((want_least && c < 0) || (!want_least && c > 0)) best = v;
    }
    return best;
  }
  const auto unary_numeric = [&](double (*fn)(double)) {
    if (args.size() != 1) {
      throw ExecutionError(name + " expects exactly one argument");
    }
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_numeric()) {
      throw ExecutionError(name + " expects a numeric argument");
    }
    return Value(fn(args[0].NumericAsDouble()));
  };
  if (name == "ABS") {
    if (args.size() != 1) throw ExecutionError("ABS expects one argument");
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_int()) {  // ABS(INT64_MIN) wraps to itself, like `-`
      const int64_t v = args[0].as_int();
      return Value(v < 0 ? static_cast<int64_t>(0 - static_cast<uint64_t>(v))
                         : v);
    }
    if (args[0].is_double()) return Value(std::fabs(args[0].as_double()));
    throw ExecutionError("ABS expects a numeric argument");
  }
  if (name == "SQRT") return unary_numeric(std::sqrt);
  if (name == "FLOOR") return unary_numeric(std::floor);
  if (name == "CEIL" || name == "CEILING") return unary_numeric(std::ceil);
  if (name == "ROUND") return unary_numeric(std::round);
  throw ExecutionError("unknown function " + name);
}

}  // namespace

bool Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (!v.is_numeric()) {
    throw ExecutionError("predicate evaluated to a TEXT value");
  }
  return v.NumericAsDouble() != 0;
}

int TryResolveColumn(const std::vector<ColumnBinding>& columns,
                     const std::string& qualifier, const std::string& name) {
  const std::string q = FoldIdentifier(qualifier);
  const std::string n = FoldIdentifier(name);
  int found = -1;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name != n) continue;
    if (!q.empty() && columns[i].qualifier != q) continue;
    if (found >= 0) {
      throw AnalysisError("ambiguous column reference '" +
                          (q.empty() ? n : q + "." + n) + "'");
    }
    found = static_cast<int>(i);
  }
  return found;
}

int ResolveColumn(const std::vector<ColumnBinding>& columns,
                  const std::string& qualifier, const std::string& name) {
  const int index = TryResolveColumn(columns, qualifier, name);
  if (index < 0) {
    throw AnalysisError(
        "unknown column '" +
        (qualifier.empty() ? name : qualifier + "." + name) + "'");
  }
  return index;
}

bool AllColumnsResolve(const sql::Expr& expr,
                       const std::vector<ColumnBinding>& columns) {
  bool ok = true;
  sql::VisitExpr(expr, [&](const sql::Expr& node) {
    if (node.kind == sql::ExprKind::kColumnRef && ok) {
      if (TryResolveColumn(columns, node.qualifier, node.column) < 0) {
        ok = false;
      }
    }
  });
  return ok;
}

Value Evaluate(const sql::Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case sql::ExprKind::kLiteral:
      return expr.literal;
    case sql::ExprKind::kColumnRef: {
      if (ctx.columns == nullptr || ctx.row == nullptr) {
        throw AnalysisError("column reference '" + expr.column +
                            "' in a context without input rows");
      }
      int index;
      if (ctx.resolution_cache != nullptr) {
        index = ctx.resolution_cache->Find(&expr);
        if (index < 0) {
          index = ResolveColumn(*ctx.columns, expr.qualifier, expr.column);
          ctx.resolution_cache->Add(&expr, index);
        }
      } else {
        index = ResolveColumn(*ctx.columns, expr.qualifier, expr.column);
      }
      return (*ctx.row)[index];
    }
    case sql::ExprKind::kStar:
      throw AnalysisError("'*' is only valid in SELECT lists and COUNT(*)");
    case sql::ExprKind::kUnary: {
      const Value v = Evaluate(*expr.left, ctx);
      if (expr.unary_op == sql::UnaryOp::kNegate) {
        if (v.is_null()) return Value::Null();
        if (v.is_int()) {  // wraps at INT64_MIN, like binary `-`
          return Value(static_cast<int64_t>(
              0 - static_cast<uint64_t>(v.as_int())));
        }
        if (v.is_double()) return Value(-v.as_double());
        throw ExecutionError("cannot negate a TEXT value");
      }
      // NOT with three-valued logic.
      if (v.is_null()) return Value::Null();
      return Value(int64_t{Truthy(v) ? 0 : 1});
    }
    case sql::ExprKind::kBinary: {
      // Left operand first: C++ leaves the order of call arguments
      // unspecified, and which operand's error a statement names must not
      // depend on the compiler.
      const Value left = Evaluate(*expr.left, ctx);
      const Value right = Evaluate(*expr.right, ctx);
      switch (expr.binary_op) {
        case sql::BinaryOp::kAnd:
        case sql::BinaryOp::kOr:
          return Logical(expr.binary_op, left, right);
        case sql::BinaryOp::kEq:
        case sql::BinaryOp::kNotEq:
        case sql::BinaryOp::kLess:
        case sql::BinaryOp::kLessEq:
        case sql::BinaryOp::kGreater:
        case sql::BinaryOp::kGreaterEq:
          return Comparison(expr.binary_op, left, right);
        default:
          return Arithmetic(expr.binary_op, left, right);
      }
    }
    case sql::ExprKind::kFunction:
      return EvalFunction(expr, ctx);
    case sql::ExprKind::kAggregate: {
      if (ctx.agg_exprs != nullptr) {
        for (size_t i = 0; i < ctx.agg_exprs->size(); ++i) {
          if (sql::ExprEquals(*(*ctx.agg_exprs)[i], expr)) {
            return (*ctx.agg_values)[i];
          }
        }
      }
      throw AnalysisError("aggregate function in an invalid position");
    }
    case sql::ExprKind::kCase: {
      if (expr.case_operand) {
        const Value operand = Evaluate(*expr.case_operand, ctx);
        for (const auto& when : expr.whens) {
          const Value candidate = Evaluate(*when.condition, ctx);
          if (!operand.is_null() && !candidate.is_null() &&
              Value::Compare(operand, candidate) == 0) {
            return Evaluate(*when.result, ctx);
          }
        }
      } else {
        for (const auto& when : expr.whens) {
          if (Truthy(Evaluate(*when.condition, ctx))) {
            return Evaluate(*when.result, ctx);
          }
        }
      }
      return expr.else_expr ? Evaluate(*expr.else_expr, ctx) : Value::Null();
    }
    case sql::ExprKind::kIsNull: {
      const Value v = Evaluate(*expr.left, ctx);
      const bool is_null = v.is_null();
      return Value(int64_t{(is_null != expr.is_not_null) ? 1 : 0});
    }
    case sql::ExprKind::kParameter:
      throw AnalysisError(
          "unbound parameter ?" + std::to_string(expr.param_index + 1) +
          " — bind a value through a prepared statement before executing");
  }
  throw UsageError("unevaluable expression kind");
}

Accumulator::Accumulator(sql::AggFunc func, bool distinct)
    : func_(func), distinct_(distinct) {}

bool Accumulator::ShouldSkipDuplicate(const Value& v) {
  if (!distinct_) return false;
  return !seen_.insert(v).second;
}

void Accumulator::Add(const Value& v) {
  if (v.is_null()) return;  // SQL aggregates ignore NULL inputs
  if (ShouldSkipDuplicate(v)) return;
  ++value_count_;
  switch (func_) {
    case sql::AggFunc::kCount:
      return;
    case sql::AggFunc::kSum:
    case sql::AggFunc::kAvg:
      if (!v.is_numeric()) {
        throw ExecutionError("SUM/AVG over non-numeric value");
      }
      if (v.is_int() && !saw_double_) {
        int_sum_ = WrapAdd(int_sum_, v.as_int());
      } else {
        if (!saw_double_) {
          double_sum_ = static_cast<double>(int_sum_);
          saw_double_ = true;
        }
        double_sum_ += v.NumericAsDouble();
      }
      return;
    case sql::AggFunc::kMin:
      if (extreme_.is_null() || Value::Compare(v, extreme_) < 0) extreme_ = v;
      return;
    case sql::AggFunc::kMax:
      if (extreme_.is_null() || Value::Compare(v, extreme_) > 0) extreme_ = v;
      return;
  }
}

void Accumulator::AddInt64Span(const int64_t* values, size_t count) {
  value_count_ += static_cast<int64_t>(count);
  switch (func_) {
    case sql::AggFunc::kCount:
      return;
    case sql::AggFunc::kSum:
    case sql::AggFunc::kAvg:
      if (!saw_double_) {
        uint64_t sum = 0;
        for (size_t i = 0; i < count; ++i) {
          sum += static_cast<uint64_t>(values[i]);
        }
        int_sum_ = WrapAdd(int_sum_, static_cast<int64_t>(sum));
      } else {
        for (size_t i = 0; i < count; ++i) {
          double_sum_ += static_cast<double>(values[i]);
        }
      }
      return;
    case sql::AggFunc::kMin:
      for (size_t i = 0; i < count; ++i) {
        if (extreme_.is_null() || values[i] < extreme_.as_int()) {
          extreme_ = Value(values[i]);
        }
      }
      return;
    case sql::AggFunc::kMax:
      for (size_t i = 0; i < count; ++i) {
        if (extreme_.is_null() || values[i] > extreme_.as_int()) {
          extreme_ = Value(values[i]);
        }
      }
      return;
  }
}

void Accumulator::AddDoubleSpan(const double* values, size_t count) {
  value_count_ += static_cast<int64_t>(count);
  switch (func_) {
    case sql::AggFunc::kCount:
      return;
    case sql::AggFunc::kSum:
    case sql::AggFunc::kAvg:
      if (!saw_double_) {
        double_sum_ = static_cast<double>(int_sum_);
        saw_double_ = true;
      }
      // Sequential lane-order adds: bit-identical to the Add() sequence.
      for (size_t i = 0; i < count; ++i) double_sum_ += values[i];
      return;
    case sql::AggFunc::kMin:
      // `v < extreme` mirrors Value::Compare's three-way double arm: a NaN
      // on either side compares "equal" and never replaces the extreme.
      for (size_t i = 0; i < count; ++i) {
        if (extreme_.is_null() || values[i] < extreme_.as_double()) {
          extreme_ = Value(values[i]);
        }
      }
      return;
    case sql::AggFunc::kMax:
      for (size_t i = 0; i < count; ++i) {
        if (extreme_.is_null() || values[i] > extreme_.as_double()) {
          extreme_ = Value(values[i]);
        }
      }
      return;
  }
}

void Accumulator::AddTextSpan(const std::string* const* values, size_t count) {
  value_count_ += static_cast<int64_t>(count);
  switch (func_) {
    case sql::AggFunc::kCount:
      return;
    case sql::AggFunc::kSum:
    case sql::AggFunc::kAvg:
      throw ExecutionError("SUM/AVG over non-numeric value");
    case sql::AggFunc::kMin:
      for (size_t i = 0; i < count; ++i) {
        if (extreme_.is_null() ||
            values[i]->compare(extreme_.as_text()) < 0) {
          extreme_ = Value(*values[i]);
        }
      }
      return;
    case sql::AggFunc::kMax:
      for (size_t i = 0; i < count; ++i) {
        if (extreme_.is_null() ||
            values[i]->compare(extreme_.as_text()) > 0) {
          extreme_ = Value(*values[i]);
        }
      }
      return;
  }
}

void Accumulator::AddCountedRows(int64_t count) { value_count_ += count; }

Value Accumulator::Result() const {
  switch (func_) {
    case sql::AggFunc::kCount:
      return Value(value_count_);
    case sql::AggFunc::kSum:
      if (value_count_ == 0) return Value::Null();
      return saw_double_ ? Value(double_sum_) : Value(int_sum_);
    case sql::AggFunc::kAvg: {
      if (value_count_ == 0) return Value::Null();
      const double total =
          saw_double_ ? double_sum_ : static_cast<double>(int_sum_);
      return Value(total / static_cast<double>(value_count_));
    }
    case sql::AggFunc::kMin:
    case sql::AggFunc::kMax:
      return extreme_;
  }
  throw UsageError("unknown aggregate");
}

void CollectAggregates(const sql::Expr& expr,
                       std::vector<const sql::Expr*>& out) {
  sql::VisitExpr(expr, [&out](const sql::Expr& node) {
    if (node.kind != sql::ExprKind::kAggregate) return;
    for (const sql::Expr* existing : out) {
      if (sql::ExprEquals(*existing, node)) return;
    }
    out.push_back(&node);
  });
}

bool ContainsAggregate(const sql::Expr& expr) {
  bool found = false;
  sql::VisitExpr(expr, [&found](const sql::Expr& node) {
    if (node.kind == sql::ExprKind::kAggregate) found = true;
  });
  return found;
}

}  // namespace sqloop::minidb
