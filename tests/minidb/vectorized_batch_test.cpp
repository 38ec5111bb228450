// Batch-specific edge cases for the batch engine: NULL-heavy columns,
// selection vectors emptying mid-pipeline, batches straddling the table
// tail (row counts around RowBatch::kCapacity), scalar-fallback
// accounting, error order, and a reader/writer race. Every case compares
// against the reference pipeline (a SelectEngine::kReference database fed
// the same statements). The seeded differential generator lives in
// fused_differential_test.cpp; this file targets the boundaries that
// generator is unlikely to hit.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "minidb/batch.h"
#include "tests/minidb/test_util.h"

namespace sqloop::minidb {
namespace {

/// Order-preserving %.17g dump — bit-faithful, like the differential suite.
std::string Dump(const ResultSet& result) {
  std::string out;
  for (const Row& row : result.rows) {
    for (const Value& value : row) out += value.ToString() + "|";
    out += "\n";
  }
  return out;
}

struct Outcome {
  bool threw = false;
  std::string error;
  std::string rows;
};

class VectorizedBatchTest : public testing::DbFixture {
 protected:
  /// Runs `sql` on both databases (tests build identical tables through
  /// it) and returns the batch engine's result.
  ResultSet Run(const std::string& sql) {
    ResultSet result = exec_.ExecuteSql(sql);
    ref_exec_.ExecuteSql(sql);
    return result;
  }

  static Outcome RunOn(Executor& exec, const std::string& sql) {
    Outcome outcome;
    try {
      outcome.rows = Dump(exec.ExecuteSql(sql));
    } catch (const Error& e) {
      outcome.threw = true;
      outcome.error = e.what();
    }
    return outcome;
  }

  /// Asserts the statement behaves bit-identically (rows, row order, and
  /// error text) on the batch engine and the reference pipeline.
  void ExpectTwoWayIdentical(const std::string& sql) {
    const Outcome vectorized = RunOn(exec_, sql);
    const Outcome reference = RunOn(ref_exec_, sql);
    ASSERT_EQ(vectorized.threw, reference.threw) << sql;
    EXPECT_EQ(vectorized.error, reference.error) << sql;
    EXPECT_EQ(vectorized.rows, reference.rows) << sql;
  }

  Database ref_db_{"testdb_ref", EngineProfile::Canonical(), nullptr,
                   SelectEngine::kReference};
  Executor ref_exec_{ref_db_};
};

// --- batches straddling the table tail ---------------------------------

TEST_F(VectorizedBatchTest, TailBatchSizesProduceIdenticalResults) {
  // Row counts chosen around the batch capacity: a final short batch, an
  // exactly-full batch, capacity+1, and a multi-batch table.
  const std::vector<int> sizes = {1,
                                  static_cast<int>(RowBatch::kCapacity) - 1,
                                  static_cast<int>(RowBatch::kCapacity),
                                  static_cast<int>(RowBatch::kCapacity) + 1,
                                  2500};
  for (size_t t = 0; t < sizes.size(); ++t) {
    const std::string table = "tail" + std::to_string(t);
    Run("CREATE TABLE " + table +
        " (id BIGINT PRIMARY KEY, rank DOUBLE PRECISION, delta BIGINT)");
    for (int i = 0; i < sizes[t]; ++i) {
      Run("INSERT INTO " + table + " VALUES (" + std::to_string(i) + ", " +
          std::to_string(i) + ".25, " + std::to_string(i % 7) + ")");
    }
    ExpectTwoWayIdentical("SELECT COUNT(*), SUM(rank), MIN(id), MAX(id) "
                            "FROM " + table + " WHERE delta = 3");
    ExpectTwoWayIdentical("SELECT id, rank FROM " + table +
                            " WHERE delta < 2");
  }
}

TEST_F(VectorizedBatchTest, BatchCountMatchesCeilOfRowsOverCapacity) {
  Run("CREATE TABLE b (id BIGINT, v BIGINT)");
  const int rows = static_cast<int>(RowBatch::kCapacity) + 1;
  for (int i = 0; i < rows; ++i) {
    Run("INSERT INTO b VALUES (" + std::to_string(i) + ", 1)");
  }
  const auto result = Run("SELECT COUNT(*) FROM b WHERE v = 1");
  EXPECT_EQ(result.rows[0][0].as_int(), rows);
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.batches_produced, 2u);  // 1024 + 1
  EXPECT_EQ(counters.vectorized_cores, 1u);
  EXPECT_EQ(counters.scalar_fallbacks, 0u);
}

// --- NULL-heavy columns -------------------------------------------------

TEST_F(VectorizedBatchTest, NullHeavyColumnsMatchAcrossPipelines) {
  Run("CREATE TABLE n (id BIGINT, rank DOUBLE PRECISION, delta BIGINT, "
      "tag TEXT)");
  for (int i = 0; i < 1500; ++i) {
    // ~80% NULLs in every non-id column, including full-NULL stretches
    // longer than a batch.
    const bool null_stretch = i >= 200 && i < 1300;
    const std::string rank =
        null_stretch || i % 5 != 0 ? "NULL" : std::to_string(i) + ".5";
    const std::string delta =
        null_stretch || i % 4 != 0 ? "NULL" : std::to_string(i % 3);
    const std::string tag =
        null_stretch || i % 7 != 0 ? "NULL" : "'t" + std::to_string(i % 2) + "'";
    Run("INSERT INTO n VALUES (" + std::to_string(i) + ", " + rank + ", " +
        delta + ", " + tag + ")");
  }
  ExpectTwoWayIdentical(
      "SELECT COUNT(*), COUNT(rank), SUM(rank), AVG(rank), MIN(delta), "
      "MAX(delta), MIN(tag), MAX(tag) FROM n");
  ExpectTwoWayIdentical("SELECT COUNT(*) FROM n WHERE rank IS NULL");
  ExpectTwoWayIdentical("SELECT id FROM n WHERE delta IS NOT NULL");
  ExpectTwoWayIdentical("SELECT COUNT(*) FROM n WHERE delta = 1");
  ExpectTwoWayIdentical("SELECT COUNT(*) FROM n WHERE tag = 't1'");
  // An all-NULL aggregate input: SUM/AVG/MIN/MAX give NULL, COUNT gives 0.
  ExpectTwoWayIdentical(
      "SELECT SUM(rank), AVG(rank), MIN(rank), COUNT(rank) FROM n "
      "WHERE id >= 200 AND id < 1300");
}

// --- selection vectors emptying mid-pipeline ---------------------------

TEST_F(VectorizedBatchTest, SelectionEmptyingMidPipelineMatches) {
  Run("CREATE TABLE s (id BIGINT, rank DOUBLE PRECISION, delta BIGINT, "
      "tag TEXT)");
  for (int i = 0; i < 1200; ++i) {
    Run("INSERT INTO s VALUES (" + std::to_string(i) + ", " +
        std::to_string(i) + ".5, " + std::to_string(i % 9) + ", 't')");
  }
  // `delta = NULL` is a never-match kernel: the selection empties on the
  // first kernel and the remaining conjuncts must not change the result.
  ExpectTwoWayIdentical(
      "SELECT COUNT(*), SUM(rank) FROM s WHERE delta = NULL AND id > 10");
  ExpectTwoWayIdentical(
      "SELECT id FROM s WHERE delta = NULL AND rank > 100.0");
  // A conjunct that empties the selection must NOT suppress the per-row
  // error of a scalar-fallback conjunct: classic AND evaluates every
  // conjunct for every visited row, so `rank > tag` (numeric vs text)
  // throws on both pipelines even though `delta = NULL` matches nothing.
  ExpectTwoWayIdentical(
      "SELECT COUNT(*) FROM s WHERE delta = NULL AND rank > tag");
  // Same hazard with a throwing projection downstream of a fallback
  // conjunct (the scan finishes a batch's conjuncts before projecting).
  ExpectTwoWayIdentical(
      "SELECT rank + tag FROM s WHERE delta + 1 = 4");
}

TEST_F(VectorizedBatchTest, ColumnVsColumnKernelOnElidedSelection) {
  // Aggregate-only select lists elide the selection fill (MarkAllSelected
  // leaves the selection array unwritten), so a column-vs-column kernel as
  // the first conjunct must materialize surviving lanes itself rather than
  // read the array — reading it here means uninitialized lane indexes and
  // wild row-view loads. This is the AsyncP priority-probe shape
  // (`SELECT MIN(Delta) FROM part WHERE Delta < Distance`).
  Run("CREATE TABLE cc (id BIGINT, rank DOUBLE PRECISION, delta BIGINT)");
  for (int i = 0; i < 2100; ++i) {
    Run("INSERT INTO cc VALUES (" + std::to_string(i) + ", " +
        std::to_string((i * 7) % 2100) + ".5, " + std::to_string(i % 11) +
        ")");
  }
  // int-vs-int and mixed double-vs-int kernel arms, both elided-first.
  ExpectTwoWayIdentical("SELECT MIN(delta) FROM cc WHERE delta < id");
  ExpectTwoWayIdentical(
      "SELECT COUNT(*), SUM(rank) FROM cc WHERE rank < id");
  // Same kernels after a literal conjunct already materialized the
  // selection (the non-identity loop).
  ExpectTwoWayIdentical(
      "SELECT COUNT(*) FROM cc WHERE id >= 5 AND delta < id");
}

// --- aggregate argument shapes -----------------------------------------

TEST_F(VectorizedBatchTest, AggregateArgumentShapesMatch) {
  Run("CREATE TABLE a (id BIGINT, rank DOUBLE PRECISION, delta BIGINT, "
      "tag TEXT)");
  for (int i = 0; i < 1100; ++i) {
    const std::string delta =
        i % 13 == 0 ? "NULL" : std::to_string((i % 2 == 0 ? -1 : 1) * i);
    Run("INSERT INTO a VALUES (" + std::to_string(i) + ", -" +
        std::to_string(i) + ".25, " + delta + ", 'x" +
        std::to_string(i % 3) + "')");
  }
  // ABS(column) — the termination-probe shape `SUM(ABS(Delta))`.
  ExpectTwoWayIdentical(
      "SELECT SUM(ABS(delta)), SUM(ABS(rank)), MAX(ABS(rank)) FROM a");
  // DISTINCT stays on the scalar accumulator path.
  ExpectTwoWayIdentical(
      "SELECT COUNT(DISTINCT tag), COUNT(DISTINCT delta) FROM a");
  // Complex arguments feed per lane.
  ExpectTwoWayIdentical("SELECT SUM(rank * 2.0 + id) FROM a");
  // SUM over a text column must throw identically on both pipelines.
  ExpectTwoWayIdentical("SELECT SUM(tag) FROM a");
  // MIN/MAX over text are typed reductions.
  ExpectTwoWayIdentical("SELECT MIN(tag), MAX(tag), COUNT(tag) FROM a");
}

// --- fallback accounting ----------------------------------------------

TEST_F(VectorizedBatchTest, ScalarFallbackCountedAndCorrect) {
  Run("CREATE TABLE f (id BIGINT, v BIGINT)");
  for (int i = 0; i < 100; ++i) {
    Run("INSERT INTO f VALUES (" + std::to_string(i) + ", " +
        std::to_string(i % 5) + ")");
  }
  // `id + 0 = 4` is not a kernel shape — it falls back to per-lane scalar
  // evaluation but the core still runs batched.
  const auto result = Run("SELECT COUNT(*) FROM f WHERE id + 0 = 4");
  EXPECT_EQ(result.rows[0][0].as_int(), 1);
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.vectorized_cores, 1u);
  EXPECT_GE(counters.scalar_fallbacks, 1u);
}

// --- error order ------------------------------------------------------

// A scalar conjunct and throw-capable work downstream of it: the engine
// finishes a batch's conjuncts before its consumer runs, so when one row
// fails the conjunct (a = 5 divides by zero) and another the projection,
// the aggregate or the join's aggregate (every row's t is text), the
// conjunct's error surfaces, as on the reference pipeline, which filters
// before it projects.
TEST_F(VectorizedBatchTest, ConjunctErrorPrecedesSinkErrorLikeReference) {
  Run("CREATE TABLE eo (a BIGINT, t TEXT)");
  for (int i = 0; i < 10; ++i) {
    Run("INSERT INTO eo VALUES (" + std::to_string(i) + ", 'x')");
  }
  ExpectTwoWayIdentical("SELECT ABS(t) FROM eo WHERE 10 / (a - 5) <> 99");
  ExpectTwoWayIdentical(
      "SELECT a, SUM(t) FROM eo WHERE 10 / (a - 5) <> 99 GROUP BY a");
  ExpectTwoWayIdentical(
      "SELECT SUM(x.t) FROM eo AS x JOIN eo AS y ON x.a = y.a "
      "WHERE 10 / (x.a + y.a - 10) <> 99");
  const Outcome outcome =
      RunOn(exec_, "SELECT ABS(t) FROM eo WHERE 10 / (a - 5) <> 99");
  EXPECT_TRUE(outcome.threw);
  EXPECT_NE(outcome.error.find("division by zero"), std::string::npos)
      << outcome.error;
}

// --- reader/writer race ------------------------------------------------

// Readers scan a multi-batch table while a writer mutates rank in place;
// every answer must be correct. Runs under the tsan preset via the engine
// label.
TEST_F(VectorizedBatchTest, ReaderWriterRaceKeepsAnswersCorrect) {
  Run("CREATE TABLE race (id BIGINT PRIMARY KEY, rank DOUBLE PRECISION, "
      "delta BIGINT)");
  for (int i = 0; i < 1500; ++i) {
    Run("INSERT INTO race VALUES (" + std::to_string(i) + ", 1.0, " +
        std::to_string(i % 100 == 0 ? 1 : 0) + ")");
  }
  std::atomic<bool> stop{false};
  std::atomic<int> updates{0};
  {
    std::jthread writer([this, &stop, &updates] {
      Executor w(db_);
      int i = 0;
      while (!stop.load()) {
        w.ExecuteSql("UPDATE race SET rank = rank + 0.5 WHERE id = " +
                     std::to_string(i++ % 1500));
        updates.fetch_add(1);
      }
    });
    {
      std::vector<std::jthread> readers;
      for (int t = 0; t < 3; ++t) {
        readers.emplace_back([this] {
          Executor reader(db_);
          for (int i = 0; i < 80; ++i) {
            const auto result = reader.ExecuteSql(
                "SELECT COUNT(*), SUM(rank) FROM race WHERE delta = 1");
            // The writer only touches rank; the delta population is fixed.
            EXPECT_EQ(result.rows[0][0].as_int(), 15);
          }
        });
      }
    }
    stop.store(true);
  }
  const auto total = exec_.ExecuteSql("SELECT SUM(rank) FROM race");
  EXPECT_DOUBLE_EQ(total.rows[0][0].NumericAsDouble(),
                   1500.0 + 0.5 * updates.load());
}

}  // namespace
}  // namespace sqloop::minidb
