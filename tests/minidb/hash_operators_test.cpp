// Oracle suite for minidb's hash operators: the hash join, hash GROUP BY,
// DISTINCT, UNION and UPDATE ... FROM all run on one KeyIndex, and both of
// the SELECT pipelines share them, so the batch-vs-reference differential
// cannot see a KeyIndex fault. Here every statement's result is checked
// against a brute-force loop written in this file over the same seeded
// rows, values and row order both:
//   * join matches in left order, each left row's in right (build) order;
//   * groups and DISTINCT rows in first-occurrence order;
//   * UNION keeping the first occurrence of the concatenated arms;
//   * UPDATE ... FROM taking the first matching source row.
// Keys cover duplicates, NULLs, two-column keys, 1 vs 1.0 and text, over
// more than one RowBatch of build rows so chains collide and the index
// grows. The mysql profile's nested-loop join must emit the same rows in
// the same order as the hash join.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "minidb/database.h"
#include "minidb/executor.h"

namespace sqloop::minidb {
namespace {

constexpr uint64_t kSeed = 20240611;
constexpr int kLeftRows = 1200;
constexpr int kRightRows = 1500;  // > RowBatch::kCapacity build rows
constexpr int kKeys = 40;

// lt(id BIGINT, k BIGINT, t TEXT, v BIGINT) and
// rt(id BIGINT, k DOUBLE PRECISION, t TEXT, w BIGINT): lt.k holds ints,
// rt.k integral doubles (1.0 joins 1) plus some halves that never match.
struct Tables {
  std::vector<Row> lt;
  std::vector<Row> rt;
};

Value MaybeNull(Rng& rng, Value v) {
  return rng.NextBelow(10) == 0 ? Value::Null() : std::move(v);
}

Value Tag(Rng& rng) {
  static const char* const kTags[] = {"a", "b", "c", "dd"};
  return MaybeNull(rng, Value(std::string(kTags[rng.NextBelow(4)])));
}

Tables Generate() {
  Rng rng(kSeed);
  Tables tables;
  for (int i = 0; i < kLeftRows; ++i) {
    tables.lt.push_back(
        {Value(int64_t{i}),
         MaybeNull(rng, Value(static_cast<int64_t>(rng.NextBelow(kKeys)))),
         Tag(rng), Value(static_cast<int64_t>(rng.NextBelow(1000)))});
  }
  for (int i = 0; i < kRightRows; ++i) {
    const double k = static_cast<double>(rng.NextBelow(kKeys)) +
                     (rng.NextBelow(8) == 0 ? 0.5 : 0.0);
    tables.rt.push_back({Value(int64_t{i}), MaybeNull(rng, Value(k)),
                         Tag(rng),
                         Value(static_cast<int64_t>(rng.NextBelow(1000)))});
  }
  return tables;
}

void Load(Executor& exec, const std::string& name, const std::string& ddl,
          const std::vector<Row>& rows) {
  exec.ExecuteSql("CREATE TABLE " + name + " (" + ddl + ")");
  for (size_t start = 0; start < rows.size(); start += 100) {
    std::string sql = "INSERT INTO " + name + " VALUES ";
    for (size_t i = start; i < std::min(rows.size(), start + 100); ++i) {
      if (i > start) sql += ", ";
      sql += "(";
      for (size_t c = 0; c < rows[i].size(); ++c) {
        if (c > 0) sql += ", ";
        sql += rows[i][c].ToSqlLiteral();
      }
      sql += ")";
    }
    exec.ExecuteSql(sql);
  }
}

void LoadAll(Executor& exec, const Tables& tables) {
  Load(exec, "lt", "id BIGINT, k BIGINT, t TEXT, v BIGINT", tables.lt);
  Load(exec, "rt", "id BIGINT, k DOUBLE PRECISION, t TEXT, w BIGINT",
       tables.rt);
}

/// SQL `=` on a join key: NULL matches nothing.
bool JoinEq(const Value& a, const Value& b) {
  return !a.is_null() && !b.is_null() && Value::Compare(a, b) == 0;
}

bool KeyEq(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!Value::KeyEquals(a[i], b[i])) return false;
  }
  return true;
}

/// Rows rendered with their types, so 1 and 1.0 differ and NULLs compare.
std::string Render(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) {
      out += ValueTypeName(v.type());
      out += ":" + v.ToString() + "|";
    }
    out += "\n";
  }
  return out;
}

void ExpectRows(Executor& exec, const std::string& sql,
                const std::vector<Row>& expected) {
  const std::vector<Row> actual = exec.ExecuteSql(sql).rows;
  EXPECT_EQ(actual.size(), expected.size()) << sql;
  EXPECT_EQ(Render(actual), Render(expected)) << sql;
}

/// Nested-loop oracle: (lt.id, rt.id) per match in left-then-right order,
/// with LEFT JOIN padding.
std::vector<Row> JoinOracle(const Tables& tables, bool two_keys,
                            bool left_join) {
  std::vector<Row> out;
  for (const Row& l : tables.lt) {
    bool matched = false;
    for (const Row& r : tables.rt) {
      if (!JoinEq(l[1], r[1])) continue;
      if (two_keys && !JoinEq(l[2], r[2])) continue;
      out.push_back({l[0], r[0]});
      matched = true;
    }
    if (left_join && !matched) out.push_back({l[0], Value::Null()});
  }
  return out;
}

/// First-occurrence grouping oracle: key columns `key` of `rows`, then
/// COUNT(*) and SUM(column `sum`).
std::vector<Row> GroupOracle(const std::vector<Row>& rows,
                             const std::vector<size_t>& key, size_t sum) {
  std::vector<Row> keys;
  std::vector<int64_t> counts;
  std::vector<int64_t> sums;
  for (const Row& row : rows) {
    Row k;
    for (const size_t c : key) k.push_back(row[c]);
    size_t g = 0;
    while (g < keys.size() && !KeyEq(keys[g], k)) ++g;
    if (g == keys.size()) {
      keys.push_back(k);
      counts.push_back(0);
      sums.push_back(0);
    }
    ++counts[g];
    sums[g] += row[sum].as_int();
  }
  std::vector<Row> out;
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row = keys[g];
    row.push_back(Value(counts[g]));
    row.push_back(Value(sums[g]));
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<Row> DedupeOracle(const std::vector<Row>& rows) {
  std::vector<Row> out;
  for (const Row& row : rows) {
    bool seen = false;
    for (const Row& kept : out) seen = seen || KeyEq(kept, row);
    if (!seen) out.push_back(row);
  }
  return out;
}

std::vector<Row> Columns(const std::vector<Row>& rows,
                         const std::vector<size_t>& columns) {
  std::vector<Row> out;
  for (const Row& row : rows) {
    Row projected;
    for (const size_t c : columns) projected.push_back(row[c]);
    out.push_back(std::move(projected));
  }
  return out;
}

class HashOperators : public ::testing::Test {
 protected:
  HashOperators() : db_("oracle", EngineProfile::Postgres()), exec_(db_) {
    LoadAll(exec_, tables_);
  }

  Tables tables_ = Generate();
  Database db_;
  Executor exec_;
};

TEST_F(HashOperators, GeneratedKeysCoverTheEdgeCases) {
  // Guards the oracle's inputs: NULL keys on both sides, integral doubles
  // that join ints, and non-integral ones that do not.
  int null_left = 0;
  int null_right = 0;
  int halves = 0;
  for (const Row& l : tables_.lt) null_left += l[1].is_null() ? 1 : 0;
  for (const Row& r : tables_.rt) {
    null_right += r[1].is_null() ? 1 : 0;
    halves += !r[1].is_null() && r[1].as_double() != static_cast<int64_t>(
                                                         r[1].as_double())
                  ? 1
                  : 0;
  }
  EXPECT_GT(null_left, 0);
  EXPECT_GT(null_right, 0);
  EXPECT_GT(halves, 0);
}

TEST_F(HashOperators, JoinMatchesNestedLoopOracle) {
  ExpectRows(exec_, "SELECT lt.id, rt.id FROM lt JOIN rt ON lt.k = rt.k",
             JoinOracle(tables_, false, false));
  ExpectRows(exec_,
             "SELECT lt.id, rt.id FROM lt JOIN rt "
             "ON lt.k = rt.k AND lt.t = rt.t",
             JoinOracle(tables_, true, false));
  ExpectRows(exec_,
             "SELECT lt.id, rt.id FROM lt LEFT JOIN rt "
             "ON lt.k = rt.k AND lt.t = rt.t",
             JoinOracle(tables_, true, true));
}

TEST_F(HashOperators, GroupByMatchesFirstOccurrenceOracle) {
  ExpectRows(exec_, "SELECT k, t, COUNT(*), SUM(v) FROM lt GROUP BY k, t",
             GroupOracle(tables_.lt, {1, 2}, 3));
  // One key column holding both 1 (from lt) and 1.0 (from rt): they form
  // one group whose key is the first occurrence, the int.
  std::vector<Row> both = tables_.lt;
  both.insert(both.end(), tables_.rt.begin(), tables_.rt.end());
  ExpectRows(exec_,
             "SELECT k, COUNT(*), SUM(v) FROM (SELECT k, v FROM lt "
             "UNION ALL SELECT k, w FROM rt) AS u GROUP BY k",
             GroupOracle(both, {1}, 3));
  // Grouping the joined rows (the shape of a Compute's produce statement).
  std::vector<Row> joined;
  for (const Row& l : tables_.lt) {
    for (const Row& r : tables_.rt) {
      if (JoinEq(l[1], r[1])) joined.push_back({r[2], l[3]});
    }
  }
  ExpectRows(exec_,
             "SELECT rt.t, COUNT(*), SUM(lt.v) FROM lt JOIN rt "
             "ON lt.k = rt.k GROUP BY rt.t",
             GroupOracle(joined, {0}, 1));
}

TEST_F(HashOperators, DistinctAndUnionKeepFirstOccurrences) {
  ExpectRows(exec_, "SELECT DISTINCT k, t FROM lt",
             DedupeOracle(Columns(tables_.lt, {1, 2})));
  std::vector<Row> arms = Columns(tables_.lt, {1, 2});
  const std::vector<Row> right = Columns(tables_.rt, {1, 2});
  arms.insert(arms.end(), right.begin(), right.end());
  ExpectRows(exec_, "SELECT k, t FROM lt UNION SELECT k, t FROM rt",
             DedupeOracle(arms));
  ExpectRows(exec_,
             "SELECT DISTINCT k FROM (SELECT k FROM lt UNION ALL "
             "SELECT k FROM rt) AS u",
             DedupeOracle(Columns(arms, {0})));
}

TEST_F(HashOperators, UpdateFromTakesFirstSourceMatch) {
  for (const bool two_keys : {false, true}) {
    exec_.ExecuteSql("DROP TABLE IF EXISTS target");
    exec_.ExecuteSql(
        "CREATE TABLE target (id BIGINT, k BIGINT, t TEXT, v BIGINT)");
    exec_.ExecuteSql("INSERT INTO target SELECT id, k, t, v FROM lt");
    const auto result = exec_.ExecuteSql(
        std::string("UPDATE target SET v = rt.w FROM rt "
                    "WHERE target.k = rt.k") +
        (two_keys ? " AND target.t = rt.t" : ""));
    std::vector<Row> expected;
    size_t changed = 0;
    for (const Row& l : tables_.lt) {
      Value v = l[3];
      for (const Row& r : tables_.rt) {
        if (JoinEq(l[1], r[1]) && (!two_keys || JoinEq(l[2], r[2]))) {
          v = r[3];
          break;
        }
      }
      if (!Value::KeyEquals(v, l[3])) ++changed;
      expected.push_back({l[0], v});
    }
    EXPECT_EQ(result.affected_rows, changed) << two_keys;
    ExpectRows(exec_, "SELECT id, v FROM target", expected);
  }
}

TEST_F(HashOperators, MySqlNestedLoopJoinEmitsTheHashJoinOrder) {
  Database mysql("oracle_mysql", EngineProfile::MySql());
  Executor mysql_exec(mysql);
  LoadAll(mysql_exec, tables_);
  for (const char* sql :
       {"SELECT lt.id, rt.id FROM lt JOIN rt ON lt.k = rt.k",
        "SELECT lt.id, rt.id, rt.t FROM lt LEFT JOIN rt "
        "ON lt.k = rt.k AND lt.t = rt.t",
        "SELECT lt.t, rt.id FROM lt JOIN rt ON lt.t = rt.t AND lt.k = rt.k "
        "WHERE lt.v < 500"}) {
    EXPECT_EQ(Render(mysql_exec.ExecuteSql(sql).rows),
              Render(exec_.ExecuteSql(sql).rows))
        << sql;
  }
}

}  // namespace
}  // namespace sqloop::minidb
