// Differential suite for the SELECT engine: every statement a seeded
// generator produces must give *bit-identical* results (values and row
// order) through the batch engine and the reference materializing
// pipeline (a SelectEngine::kReference database holding the same rows),
// under all three engine profiles. The generator covers the shapes the
// batch engine specializes — selective filters over indexed and
// unindexed columns, inner/left/cross joins, GROUP BY with every
// aggregate, UNION ALL, DISTINCT, LIMIT — plus NULL three-valued logic in
// predicates and group keys. A join-core case holds a LEFT JOIN with a
// residual WHERE and GROUP BY over more than one batch of joined rows to
// the same bar, with an unbounded and a tiny buffer pool.
//
// A final concurrency case runs borrowed-view scans against a live writer
// so the thread sanitizer exercises the engine's locking story
// (`ctest -L engine` is part of the tsan preset).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "minidb/batch.h"
#include "minidb/database.h"
#include "minidb/executor.h"

namespace sqloop::minidb {
namespace {

/// One statement's observable behaviour: its rows (order-preserving,
/// %.17g doubles — bit-faithful), or the fact it threw. Dumped to text
/// because Value's operator== has SQL semantics (NULL == NULL is false);
/// rows_examined is deliberately excluded — the two pipelines may scan
/// different row counts (that asymmetry is the optimization).
struct Outcome {
  bool threw = false;
  std::string rows;
};

Outcome RunOnce(Executor& exec, const std::string& sql) {
  Outcome outcome;
  try {
    for (const Row& row : exec.ExecuteSql(sql).rows) {
      for (const Value& value : row) outcome.rows += value.ToString() + "|";
      outcome.rows += "\n";
    }
  } catch (const Error&) {
    outcome.threw = true;
  }
  return outcome;
}

void SeedTables(Executor& exec) {
  exec.ExecuteSql(
      "CREATE TABLE s (id BIGINT PRIMARY KEY, rank DOUBLE PRECISION, "
      "delta BIGINT, tag TEXT)");
  for (int i = 0; i < 200; ++i) {
    const std::string rank =
        i % 13 == 0 ? "NULL" : std::to_string(i) + ".125";
    const std::string delta = i % 11 == 0 ? "NULL" : std::to_string(i % 7);
    const std::string tag =
        i % 9 == 0 ? "NULL" : "'tag" + std::to_string(i % 5) + "'";
    exec.ExecuteSql("INSERT INTO s VALUES (" + std::to_string(i) + ", " +
                    rank + ", " + delta + ", " + tag + ")");
  }
  exec.ExecuteSql(
      "CREATE TABLE e (src BIGINT, dst BIGINT, w DOUBLE PRECISION)");
  for (int i = 0; i < 300; ++i) {
    const std::string w = i % 8 == 0 ? "NULL" : std::to_string(i) + ".25";
    exec.ExecuteSql("INSERT INTO e VALUES (" + std::to_string(i % 50) +
                    ", " + std::to_string((i * 3) % 40) + ", " + w + ")");
  }
  exec.ExecuteSql("CREATE INDEX e_dst ON e (dst)");
  exec.ExecuteSql("CREATE TABLE small (k BIGINT, v BIGINT)");
  for (int i = 0; i < 12; ++i) {
    const std::string k = i % 5 == 4 ? "NULL" : std::to_string(i % 4);
    exec.ExecuteSql("INSERT INTO small VALUES (" + k + ", " +
                    std::to_string(i) + ")");
  }
}

/// Statement generator. Each Next() yields one SELECT drawn from the
/// grammar in the file comment, deterministic for a fixed seed.
class StatementGen {
 public:
  explicit StatementGen(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    switch (rng_.NextBelow(5)) {
      case 0:
        return SingleTable();
      case 1:
        return Aggregate();
      case 2:
        return Join();
      case 3:
        return JoinAggregate();
      default:
        return Union();
    }
  }

 private:
  uint64_t Pick(uint64_t bound) { return rng_.NextBelow(bound); }
  std::string Int(int64_t lo, int64_t hi) {
    return std::to_string(lo + static_cast<int64_t>(
                                   Pick(static_cast<uint64_t>(hi - lo + 1))));
  }

  /// A predicate over one column of table alias `a`; exercises equality
  /// (index-probe bait on s.id and e.dst), ranges, IS [NOT] NULL, and the
  /// never-matching `= NULL`.
  std::string Predicate(const std::string& a, bool table_s) {
    if (table_s) {
      switch (Pick(8)) {
        case 0:
          return a + "id = " + Int(-5, 210);
        case 1:
          return a + "delta = " + Int(0, 7);
        case 2:
          return a + "delta < " + Int(1, 6);
        case 3:
          return a + "rank > " + Int(0, 180) + ".5";
        case 4:
          return a + "tag = 'tag" + Int(0, 5) + "'";
        case 5:
          return a + "rank IS NULL";
        case 6:
          return a + "delta IS NOT NULL";
        default:
          return a + "delta = NULL";
      }
    }
    switch (Pick(5)) {
      case 0:
        return a + "dst = " + Int(-2, 42);
      case 1:
        return a + "src < " + Int(5, 45);
      case 2:
        return a + "w IS NULL";
      case 3:
        return a + "w > " + Int(0, 250) + ".0";
      default:
        return a + "dst = NULL";
    }
  }

  std::string Where(const std::string& a, bool table_s) {
    const uint64_t conjuncts = Pick(4);  // 0..3
    std::string sql;
    for (uint64_t i = 0; i < conjuncts; ++i) {
      sql += (i == 0 ? " WHERE " : " AND ") + Predicate(a, table_s);
    }
    return sql;
  }

  std::string SingleTable() {
    std::string sql = "SELECT ";
    if (Pick(4) == 0) sql += "DISTINCT ";
    switch (Pick(3)) {
      case 0:
        sql += "*";
        break;
      case 1:
        sql += "id, tag, rank";
        break;
      default:
        sql += "id + delta AS shifted, rank * 2.0 AS scaled";
        break;
    }
    sql += " FROM s" + Where("", true);
    if (Pick(2) == 0) sql += " ORDER BY id";
    if (Pick(3) == 0) sql += " LIMIT " + Int(0, 20);
    return sql;
  }

  std::string Aggregate() {
    const bool grouped = Pick(4) != 0;
    std::string sql =
        "SELECT COUNT(*) AS n, SUM(rank) AS total, AVG(rank) AS mean, "
        "MIN(delta) AS lo, MAX(delta) AS hi";
    if (grouped) sql += ", tag";
    sql += " FROM s" + Where("", true);
    if (grouped) {
      sql += " GROUP BY tag";
      if (Pick(2) == 0) sql += " HAVING COUNT(*) > " + Int(0, 3);
      if (Pick(2) == 0) sql += " ORDER BY tag";
    }
    return sql;
  }

  std::string Join() {
    const bool left = Pick(3) == 0;
    std::string sql = "SELECT s.id, s.rank, e.src, e.w FROM s ";
    sql += left ? "LEFT JOIN" : "JOIN";
    sql += " e ON s.id = e.dst";
    std::string where = Where("s.", true);
    if (Pick(2) == 0) {
      where += (where.empty() ? " WHERE " : " AND ") + Predicate("e.", false);
    }
    sql += where;
    if (Pick(3) == 0) sql += " ORDER BY s.id, e.src";
    return sql;
  }

  std::string JoinAggregate() {
    if (Pick(4) == 0) {
      // Cross join stays on the small table: the point is plan shape,
      // not row volume.
      return "SELECT COUNT(*) AS n, SUM(a.v + b.v) AS total "
             "FROM small AS a, small AS b WHERE a.k = " +
             Int(0, 4);
    }
    std::string sql =
        "SELECT s.delta, COUNT(*) AS n, SUM(e.w) AS wsum "
        "FROM s JOIN e ON s.id = e.dst" +
        Where("s.", true) + " GROUP BY s.delta";
    if (Pick(2) == 0) sql += " ORDER BY s.delta";
    return sql;
  }

  std::string Union() {
    std::string sql = "SELECT id FROM s" + Where("", true);
    sql += Pick(2) == 0 ? " UNION ALL " : " UNION ";
    sql += "SELECT dst FROM e" + Where("", false);
    return sql;
  }

  Rng rng_;
};

class FusedDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(FusedDifferential, RandomStatementsMatchReferencePipeline) {
  Database db("diff", EngineProfile::ByName(GetParam()));
  Database ref("diff_ref", EngineProfile::ByName(GetParam()), nullptr,
               SelectEngine::kReference);
  Executor exec(db);
  Executor ref_exec(ref);
  SeedTables(exec);
  SeedTables(ref_exec);
  StatementGen gen(0x5ca1ab1e);
  for (int i = 0; i < 200; ++i) {
    const std::string sql = gen.Next();
    // The batch engine and the reference pipeline must agree bit for bit,
    // including whether the statement threw.
    const Outcome vectorized = RunOnce(exec, sql);
    const Outcome reference = RunOnce(ref_exec, sql);
    ASSERT_EQ(vectorized.threw, reference.threw) << sql;
    ASSERT_EQ(vectorized.rows, reference.rows) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(EngineProfiles, FusedDifferential,
                         ::testing::Values("postgres", "mysql", "mariadb"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// A join core — LEFT JOIN, a WHERE with a pushed left-only conjunct and
// two residual ones (right-only under a LEFT JOIN, and mixed), GROUP BY —
// over more joined rows than one batch holds. It must run on the batch
// engine (vectorized_cores counts it) and stay bit-identical to the
// reference pipeline, with the pool unbounded and with a budget so small
// that every table spills. Both statements stage joined rows in
// multi-row batches; the first also filters them by residual conjuncts.
TEST(JoinCoreDifferential, LeftJoinResidualGroupByMatchesReference) {
  const auto seed = [](Executor& exec) {
    exec.ExecuteSql(
        "CREATE TABLE s (id BIGINT PRIMARY KEY, rank DOUBLE PRECISION, "
        "delta BIGINT)");
    exec.ExecuteSql("CREATE TABLE e (src BIGINT, dst BIGINT, w DOUBLE)");
    exec.ExecuteSql("CREATE INDEX e_dst ON e (dst)");
    for (int i = 0; i < 1200; ++i) {
      const std::string rank =
          i % 13 == 0 ? "NULL" : std::to_string(i) + ".125";
      exec.ExecuteSql("INSERT INTO s VALUES (" + std::to_string(i) + ", " +
                      rank + ", " + std::to_string(i % 7) + ")");
    }
    for (int i = 0; i < 3000; ++i) {
      const std::string w = i % 11 == 0 ? "NULL" : std::to_string(i) + ".25";
      exec.ExecuteSql("INSERT INTO e VALUES (" + std::to_string(i % 97) +
                      ", " + std::to_string((i * 7) % 1000) + ", " + w + ")");
    }
  };
  const std::string select =
      "SELECT s.delta, COUNT(*) AS n, SUM(e.w) AS wsum, MIN(s.rank) AS lo, "
      "MAX(e.src) AS hi FROM s LEFT JOIN e ON s.id = e.dst "
      "WHERE s.delta < 6";
  const std::string tail = " GROUP BY s.delta ORDER BY s.delta";
  const std::vector<std::string> statements = {
      select +
          " AND (e.w IS NULL OR e.w > 100.0)"
          " AND s.rank + COALESCE(e.w, 0.0) > 50.0" +
          tail,
      select + tail};

  Database ref("join_ref", EngineProfile::Canonical(), nullptr,
               SelectEngine::kReference);
  Executor ref_exec(ref);
  seed(ref_exec);
  std::vector<Outcome> reference;
  for (const std::string& sql : statements) {
    reference.push_back(RunOnce(ref_exec, sql));
    ASSERT_FALSE(reference.back().threw) << sql;
    ASSERT_EQ(ref_exec.last_engine_counters().vectorized_cores, 0u);
  }
  // The core's input really spans several batches of joined rows.
  ASSERT_GT(ref_exec.ExecuteSql("SELECT COUNT(*) FROM s LEFT JOIN e "
                                "ON s.id = e.dst WHERE s.delta < 6")
                .rows[0][0]
                .as_int(),
            static_cast<int64_t>(RowBatch::kCapacity) * 2);

  for (const int64_t pool_bytes : {int64_t{0}, int64_t{96} << 10}) {
    SCOPED_TRACE("buffer_pool_bytes=" + std::to_string(pool_bytes));
    Database db("join", EngineProfile::Canonical());
    db.set_buffer_pool_bytes(pool_bytes);
    Executor exec(db);
    seed(exec);
    for (size_t i = 0; i < statements.size(); ++i) {
      const Outcome batched = RunOnce(exec, statements[i]);
      const auto& counters = exec.last_engine_counters();
      EXPECT_EQ(counters.vectorized_cores, 1u) << statements[i];
      // The left scan's two batches plus several of joined rows.
      EXPECT_GE(counters.batches_produced, 4u) << statements[i];
      ASSERT_FALSE(batched.threw) << statements[i];
      EXPECT_EQ(batched.rows, reference[i].rows) << statements[i];
    }
    if (pool_bytes > 0) {
      EXPECT_GT(db.buffer_pool().stats().pages_evicted, 0u)
          << "the tiny budget must actually force spills";
    }
  }
}

// Borrowed row views live only for the statement that holds the table's
// shared lock; this hammers that boundary with a concurrent writer so the
// tsan preset can see the whole story at once.
TEST(FusedConcurrency, BorrowedScansRaceWithWrites) {
  Database db("race", EngineProfile::ByName("postgres"));
  Executor exec(db);
  exec.ExecuteSql(
      "CREATE TABLE state (id BIGINT PRIMARY KEY, rank DOUBLE PRECISION, "
      "delta BIGINT)");
  for (int i = 0; i < 500; ++i) {
    exec.ExecuteSql("INSERT INTO state VALUES (" + std::to_string(i) +
                    ", 1.0, " + std::to_string(i % 100 == 0 ? 1 : 0) + ")");
  }
  std::atomic<bool> stop{false};
  std::atomic<int> updates{0};
  {
    // The writer runs until the readers drain their fixed budget;
    // destruction order (inner block first) joins readers before `stop`
    // is raised. Readers are bounded, not the writer: the readers' shared
    // locks are what starve the writer, never the reverse.
    std::jthread writer([&db, &stop, &updates] {
      Executor w(db);
      int i = 0;
      while (!stop.load()) {
        w.ExecuteSql("UPDATE state SET rank = rank + 0.5 WHERE id = " +
                     std::to_string(i++ % 500));
        updates.fetch_add(1);
      }
    });
    {
      std::vector<std::jthread> readers;
      for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&db] {
          Executor reader(db);
          for (int i = 0; i < 120; ++i) {
            const auto result = reader.ExecuteSql(
                "SELECT COUNT(*), SUM(rank) FROM state WHERE delta = 1");
            // The writer only touches rank; the delta population is fixed.
            EXPECT_EQ(result.rows[0][0].as_int(), 5);
          }
        });
      }
    }
    stop.store(true);
  }
  const auto total = exec.ExecuteSql("SELECT SUM(rank) FROM state");
  EXPECT_DOUBLE_EQ(total.rows[0][0].NumericAsDouble(),
                   500.0 + 0.5 * updates.load());
}

}  // namespace
}  // namespace sqloop::minidb
