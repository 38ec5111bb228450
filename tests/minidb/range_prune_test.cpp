// Range-core pruning: a prepared UNION ALL over per-source outboxes (the
// Gather's read shape) binds a seq window per arm, and an arm whose bound
// window is empty is answered without scanning or locking its table. The
// plan decides which arms qualify once per bind (catalog version); each
// execution only compares the bound values. The reference pipeline
// evaluates every arm, so it is the oracle for rows and errors alike.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tests/minidb/test_util.h"

namespace sqloop::minidb {
namespace {

constexpr int kArms = 8;

/// SELECT id, val FROM m<s> WHERE target_pt = ? AND seq > ? AND seq <= ?
/// for every source s, joined with UNION ALL.
std::string UnionSql() {
  std::string sql;
  for (int s = 0; s < kArms; ++s) {
    if (s > 0) sql += " UNION ALL ";
    sql += "SELECT id, val FROM m" + std::to_string(s) +
           " WHERE target_pt = ? AND seq > ? AND seq <= ?";
  }
  return sql;
}

/// One prepared handle on one executor: the cached plan plus a private
/// clone of its AST whose `?` slots Execute rewrites, the way a dbc
/// PreparedStatement binds.
class Handle {
 public:
  Handle(Database& db, Executor& exec, std::string sql)
      : db_(db), exec_(exec), sql_(std::move(sql)) {
    plan_ = exec_.Prepare(sql_);
    bound_ = plan_->ast->Clone();
    slots_.assign(static_cast<size_t>(plan_->param_count), nullptr);
    sql::VisitStatementExprsMutable(*bound_, [this](sql::Expr& expr) {
      if (expr.param_index >= 0) {
        slots_[static_cast<size_t>(expr.param_index)] = &expr;
      }
    });
  }

  /// Executes with `binds`; DDL since the last execution re-prepares
  /// first, which rebinds the plan without a parse.
  ResultSet Execute(const std::vector<Value>& binds) {
    if (plan_->bound_version != db_.catalog_version()) {
      plan_ = exec_.Prepare(sql_);
    }
    for (size_t i = 0; i < slots_.size(); ++i) {
      slots_[i]->kind = sql::ExprKind::kLiteral;
      slots_[i]->literal = binds.at(i);
    }
    return exec_.ExecuteWithPlan(*bound_, *plan_->locks);
  }

 private:
  Database& db_;
  Executor& exec_;
  std::string sql_;
  std::shared_ptr<const CachedPlan> plan_;
  sql::StatementPtr bound_;
  std::vector<sql::Expr*> slots_;
};

/// Binds for target 1 with arm s reading (from[s], upto[s]].
std::vector<Value> Windows(const std::vector<int64_t>& from,
                           const std::vector<int64_t>& upto) {
  std::vector<Value> binds;
  for (int s = 0; s < kArms; ++s) {
    binds.emplace_back(int64_t{1});
    binds.emplace_back(from[static_cast<size_t>(s)]);
    binds.emplace_back(upto[static_cast<size_t>(s)]);
  }
  return binds;
}

class RangePruneTest : public testing::DbFixture {
 protected:
  void SetUp() override {
    for (Executor* exec : {&exec_, &ref_exec_}) {
      for (int s = 0; s < kArms; ++s) CreateOutbox(*exec, s, "BIGINT");
    }
  }

  /// m<s> with 12 rows: seq 1-4, target_pt 0-2, id and val derived from s.
  static void CreateOutbox(Executor& exec, int s, const std::string& seq_type) {
    const std::string table = "m" + std::to_string(s);
    exec.ExecuteSql("CREATE TABLE " + table + " (id BIGINT, val DOUBLE " +
                    "PRECISION, target_pt BIGINT, seq " + seq_type + ")");
    for (int seq = 1; seq <= 4; ++seq) {
      for (int t = 0; t < 3; ++t) {
        const std::string seq_value = seq_type == "TEXT"
                                          ? "'" + std::to_string(seq) + "'"
                                          : std::to_string(seq);
        exec.ExecuteSql("INSERT INTO " + table + " VALUES (" +
                        std::to_string(100 * s + 10 * seq + t) + ", " +
                        std::to_string(s) + "." + std::to_string(seq) + ", " +
                        std::to_string(t) + ", " + seq_value + ")");
      }
    }
  }

  struct Outcome {
    bool threw = false;
    std::string error;
    std::vector<Row> rows;
  };
  static Outcome RunOn(Handle& handle, const std::vector<Value>& binds) {
    Outcome outcome;
    try {
      outcome.rows = handle.Execute(binds).rows;
    } catch (const std::exception& e) {
      outcome.threw = true;
      outcome.error = e.what();
    }
    return outcome;
  }

  /// Runs `binds` on both engines; asserts identical rows (in order), or
  /// that both threw the same error, and returns the batch engine's
  /// pruned-core count.
  size_t ExpectSameAsReference(Handle& batch, Handle& reference,
                               const std::vector<Value>& binds) {
    const Outcome got = RunOn(batch, binds);
    const size_t pruned = exec_.last_engine_counters().pruned_cores;
    const Outcome want = RunOn(reference, binds);
    EXPECT_EQ(got.threw, want.threw) << got.error << " / " << want.error;
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.rows, want.rows);
    return pruned;
  }

  Database ref_db_{"testdb_ref", EngineProfile::Canonical(), nullptr,
                   SelectEngine::kReference};
  Executor ref_exec_{ref_db_};
};

TEST_F(RangePruneTest, MostlyEmptyWindowsMatchReferenceAcrossRebinds) {
  Handle batch(db_, exec_, UnionSql());
  Handle reference(ref_db_, ref_exec_, UnionSql());
  // Arms 2 and 5 read live windows; every other window is empty, one of
  // them inverted.
  std::vector<int64_t> from(kArms, 3);
  std::vector<int64_t> upto(kArms, 3);
  from[2] = 0;
  upto[2] = 4;
  from[5] = 1;
  upto[5] = 3;
  from[7] = 4;
  upto[7] = 1;
  const auto binds = Windows(from, upto);
  EXPECT_EQ(ExpectSameAsReference(batch, reference, binds), kArms - 2u);

  // Rebinding the same handle to other windows re-decides per execution.
  std::vector<int64_t> all_live(kArms, 0);
  std::vector<int64_t> all_upto(kArms, 4);
  EXPECT_EQ(ExpectSameAsReference(batch, reference,
                                  Windows(all_live, all_upto)),
            0u);
  EXPECT_EQ(ExpectSameAsReference(batch, reference, Windows(upto, upto)),
            static_cast<size_t>(kArms));

  // DDL bumps the catalog version: the plan is rebound (no parse) and
  // prunes the same arms.
  for (Executor* exec : {&exec_, &ref_exec_}) {
    exec->ExecuteSql("CREATE INDEX m3_t ON m3 (target_pt)");
  }
  const uint64_t parses = db_.plan_cache().misses();
  EXPECT_EQ(ExpectSameAsReference(batch, reference, binds), kArms - 2u);
  EXPECT_EQ(db_.plan_cache().misses(), parses);

  // A NULL bound compares to nothing: that arm is empty too.
  auto null_binds = Windows(all_live, all_upto);
  null_binds[3 * 4 + 2] = Value::Null();
  EXPECT_EQ(ExpectSameAsReference(batch, reference, null_binds), 1u);
}

TEST_F(RangePruneTest, TextBindLeavesTheArmToFullEvaluation) {
  Handle batch(db_, exec_, UnionSql());
  Handle reference(ref_db_, ref_exec_, UnionSql());
  std::vector<int64_t> empty(kArms, 2);
  auto binds = Windows(empty, empty);
  // Arm 4's window (seq > 'x' AND seq <= 'x') orders as empty, but a TEXT
  // value against a BIGINT column is an error per row: the arm is not
  // pruned, so the statement fails exactly as the reference does. Both
  // conjuncts fail; both engines name the left one.
  binds[3 * 4 + 1] = Value(std::string("x"));
  binds[3 * 4 + 2] = Value(std::string("x"));
  ExpectSameAsReference(batch, reference, binds);
  const Outcome got = RunOn(batch, binds);
  EXPECT_TRUE(got.threw);
  EXPECT_NE(got.error.find("cannot apply > to BIGINT and TEXT"),
            std::string::npos)
      << got.error;
  // The same handle prunes arm 4 again once its bounds are numeric.
  EXPECT_EQ(ExpectSameAsReference(batch, reference, Windows(empty, empty)),
            static_cast<size_t>(kArms));
}

TEST_F(RangePruneTest, DropCreateWithAnotherColumnTypeRederivesPrunability) {
  Handle batch(db_, exec_, UnionSql());
  Handle reference(ref_db_, ref_exec_, UnionSql());
  std::vector<int64_t> empty(kArms, 2);
  const auto binds = Windows(empty, empty);
  EXPECT_EQ(ExpectSameAsReference(batch, reference, binds),
            static_cast<size_t>(kArms));

  // m6.seq becomes TEXT: a numeric window over it may raise an error per
  // row, so arm 6 is no range core any more and is evaluated in full.
  for (Executor* exec : {&exec_, &ref_exec_}) {
    exec->ExecuteSql("DROP TABLE m6");
    CreateOutbox(*exec, 6, "TEXT");
  }
  EXPECT_EQ(ExpectSameAsReference(batch, reference, binds), kArms - 1u);

  // Back to BIGINT: prunable again.
  for (Executor* exec : {&exec_, &ref_exec_}) {
    exec->ExecuteSql("DROP TABLE m6");
    CreateOutbox(*exec, 6, "BIGINT");
  }
  EXPECT_EQ(ExpectSameAsReference(batch, reference, binds),
            static_cast<size_t>(kArms));
}

TEST_F(RangePruneTest, IdleArmTableIsNotLockedWhileAWriterHoldsIt) {
  const std::string sql = "INSERT INTO inbox " + UnionSql();
  exec_.ExecuteSql("CREATE TABLE inbox (id BIGINT, val DOUBLE PRECISION)");
  Handle gather(db_, exec_, sql);
  std::vector<int64_t> from(kArms, 3);
  std::vector<int64_t> upto(kArms, 3);
  from[0] = 0;
  upto[0] = 4;

  // Another connection holds m1's write lock. Arm 1's window is empty, so
  // the statement neither waits for m1 nor reads it. (The futures are
  // declared before the lock, so a failed assertion releases the writer
  // before it waits for the statement.)
  const auto m1 = db_.FindTable("m1");
  ASSERT_NE(m1, nullptr);
  std::future<size_t> idle;
  std::future<size_t> live;
  std::unique_lock writer(m1->lock());
  idle = std::async(std::launch::async, [&] {
    return gather.Execute(Windows(from, upto)).affected_rows;
  });
  ASSERT_EQ(idle.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "an idle arm waited for its table's lock";
  EXPECT_EQ(idle.get(), 4u);  // arm 0: seq 1-4 for target 1

  // A live window on m1 does need the lock: it waits for the writer.
  from[1] = 0;
  upto[1] = 4;
  live = std::async(std::launch::async, [&] {
    return gather.Execute(Windows(from, upto)).affected_rows;
  });
  EXPECT_EQ(live.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  writer.unlock();
  EXPECT_EQ(live.get(), 8u);
}

}  // namespace
}  // namespace sqloop::minidb
