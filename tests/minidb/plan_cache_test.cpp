// Plan-cache semantics: key normalization, the one admission rule (every
// compile enters the shared LRU), rebind-not-reparse invalidation on DDL,
// view re-expansion, engine-profile isolation, LRU eviction, and the
// regression that a stale cached plan can never read a dropped index
// (index choice happens at execution time).
#include "minidb/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/error.h"
#include "minidb/executor.h"
#include "tests/minidb/test_util.h"

namespace sqloop::minidb {
namespace {

using testing::DbFixture;

TEST(NormalizeSqlKeyTest, CollapsesWhitespaceOutsideQuotes) {
  EXPECT_EQ(NormalizeSqlKey("SELECT  *\n FROM\tt"), "SELECT * FROM t");
  EXPECT_EQ(NormalizeSqlKey("  SELECT 1  ;  "), "SELECT 1");
  // Quoted regions keep their spacing — they are data, not syntax.
  EXPECT_EQ(NormalizeSqlKey("SELECT 'a  b'  FROM t"), "SELECT 'a  b' FROM t");
  EXPECT_EQ(NormalizeSqlKey("SELECT 'it''s  ok'"), "SELECT 'it''s  ok'");
  // Different spellings of the same statement share one cache key.
  EXPECT_EQ(NormalizeSqlKey("SELECT 1\nFROM t;"),
            NormalizeSqlKey("SELECT 1 FROM t"));
}

class PlanCacheFixture : public DbFixture {
 protected:
  PlanCacheFixture() {
    Run("CREATE TABLE t (id BIGINT, v DOUBLE PRECISION)");
    Run("INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5)");
  }

  const PlanCache& cache() const { return db_.plan_cache(); }
};

TEST_F(PlanCacheFixture, AdHocTextIsPromotedOnSecondSighting) {
  const std::string sql = "SELECT SUM(v) FROM t";
  const uint64_t hits0 = cache().hits();
  const uint64_t misses0 = cache().misses();
  // Every compile enters the shared cache: the first execution parses, and
  // from the second sighting on — even spelled with other whitespace — the
  // plan is served from cache.
  Run(sql);
  EXPECT_EQ(cache().misses(), misses0 + 1);
  Run("SELECT   SUM(v)\nFROM t");
  EXPECT_EQ(cache().misses(), misses0 + 1);
  EXPECT_EQ(cache().hits(), hits0 + 1);
  Run(sql);
  EXPECT_EQ(cache().misses(), misses0 + 1);
  EXPECT_EQ(cache().hits(), hits0 + 2);
}

TEST_F(PlanCacheFixture, PinnedPrepareEntersCacheImmediately) {
  const std::string sql = "SELECT COUNT(*) FROM t";
  const uint64_t misses0 = cache().misses();
  const auto plan = exec_.Prepare(sql);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(cache().misses(), misses0 + 1);
  // The same text — even spelled with different whitespace — now hits.
  const uint64_t hits0 = cache().hits();
  Run(sql);
  Run("SELECT   COUNT(*)\nFROM t");
  EXPECT_EQ(cache().misses(), misses0 + 1);
  EXPECT_EQ(cache().hits(), hits0 + 2);
}

TEST_F(PlanCacheFixture, DdlRebindsWithoutReparsing) {
  const std::string sql = "SELECT id FROM t WHERE v > 1.0";
  exec_.Prepare(sql);
  const uint64_t misses0 = cache().misses();
  const uint64_t rebinds0 = cache().rebinds();

  // Unrelated DDL bumps the catalog version; the next execution re-binds
  // the lock plan from the cached AST — no re-parse, so no miss.
  Run("CREATE TABLE unrelated (x BIGINT)");
  const auto result = Run(sql);
  EXPECT_EQ(result.rows.size(), 2u);
  EXPECT_GT(cache().rebinds(), rebinds0);
  // The DDL itself was one ad-hoc miss; the cached SELECT was not.
  EXPECT_EQ(cache().misses(), misses0 + 1);
}

TEST_F(PlanCacheFixture, CreateAndDropIndexForceReplan) {
  const std::string sql = "SELECT v FROM t WHERE id = 2";
  exec_.Prepare(sql);
  const uint64_t version0 = db_.catalog_version();

  Run("CREATE INDEX t_id ON t (id)");
  EXPECT_GT(db_.catalog_version(), version0);
  const uint64_t rebinds_after_create = cache().rebinds();
  EXPECT_DOUBLE_EQ(Run(sql).rows.at(0).at(0).as_double(), 1.5);
  EXPECT_GT(cache().rebinds(), rebinds_after_create);

  const uint64_t rebinds_before_drop = cache().rebinds();
  Run("DROP INDEX t_id ON t");
  EXPECT_DOUBLE_EQ(Run(sql).rows.at(0).at(0).as_double(), 1.5);
  EXPECT_GT(cache().rebinds(), rebinds_before_drop);
}

TEST_F(PlanCacheFixture, StaleCachedPlanNeverReadsDroppedIndex) {
  // Regression: cache a plan while an index exists, drop the index, and
  // re-execute the cached plan. Index choice happens at execution time
  // against the live catalog, so the result must be correct (and must not
  // touch freed index structures — ASan would catch that).
  Run("CREATE INDEX t_id ON t (id)");
  const std::string sql = "SELECT v FROM t WHERE id = 3";
  exec_.Prepare(sql);
  EXPECT_DOUBLE_EQ(Run(sql).rows.at(0).at(0).as_double(), 2.5);

  Run("DROP INDEX t_id ON t");
  const auto result = Run(sql);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rows.at(0).at(0).as_double(), 2.5);
}

TEST_F(PlanCacheFixture, ViewRedefinitionIsReflectedOnNextExecution) {
  Run("CREATE TABLE a (x BIGINT)");
  Run("CREATE TABLE b (x BIGINT)");
  Run("INSERT INTO a VALUES (1)");
  Run("INSERT INTO b VALUES (2)");
  Run("CREATE VIEW w AS SELECT x FROM a");

  const std::string sql = "SELECT SUM(x) FROM w";
  exec_.Prepare(sql);
  EXPECT_EQ(Run(sql).rows.at(0).at(0).as_int(), 1);

  // Redefine the view over a different base table: the cached plan's view
  // expansion is stale, and the rebind must pick up the new definition.
  Run("DROP VIEW w");
  Run("CREATE VIEW w AS SELECT x FROM b");
  EXPECT_EQ(Run(sql).rows.at(0).at(0).as_int(), 2);
}

TEST_F(PlanCacheFixture, DroppedAndRecreatedTableResolvesFresh) {
  const std::string sql = "SELECT COUNT(*) FROM t";
  exec_.Prepare(sql);
  EXPECT_EQ(Run(sql).rows.at(0).at(0).as_int(), 3);

  // Table pointers are re-resolved by name at execution, so a cached plan
  // survives a drop/recreate of the table it references.
  Run("DROP TABLE t");
  Run("CREATE TABLE t (id BIGINT, v DOUBLE PRECISION)");
  Run("INSERT INTO t VALUES (9, 9.0)");
  EXPECT_EQ(Run(sql).rows.at(0).at(0).as_int(), 1);
}

TEST(PlanCacheIsolationTest, EngineProfilesDoNotShareEntries) {
  // Each database owns its cache, and the key is additionally prefixed
  // with the engine profile name — a postgres plan can never serve a
  // mysql connection even if a cache were shared.
  Database pg("pgdb", EngineProfile::Postgres());
  Database my("mydb", EngineProfile::MySql());
  Executor pg_exec(pg);
  Executor my_exec(my);

  const std::string ddl = "CREATE TABLE t (id BIGINT)";
  const std::string sql = "SELECT COUNT(*) FROM t";
  pg_exec.ExecuteSql(ddl);
  my_exec.ExecuteSql(ddl);
  pg_exec.Prepare(sql);
  // Each cache holds its own DDL text; only postgres holds the SELECT.
  EXPECT_EQ(pg.plan_cache().size(), 2u);
  EXPECT_EQ(my.plan_cache().size(), 1u);

  // The other engine compiles its own plan: a fresh miss, not a hit.
  const uint64_t my_hits0 = my.plan_cache().hits();
  const uint64_t my_misses0 = my.plan_cache().misses();
  my_exec.Prepare(sql);
  EXPECT_EQ(my.plan_cache().hits(), my_hits0);
  EXPECT_EQ(my.plan_cache().misses(), my_misses0 + 1);
}

TEST(PlanCacheLruTest, EvictsLeastRecentlyUsedAtCapacity) {
  PlanCache cache(/*capacity=*/2);
  auto plan = [] {
    auto p = std::make_shared<CachedPlan>();
    return std::shared_ptr<const CachedPlan>(std::move(p));
  };
  cache.Put("a", plan());
  cache.Put("b", plan());
  ASSERT_NE(cache.Lookup("a"), nullptr);  // "a" is now most recently used
  cache.Put("c", plan());                 // evicts "b"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
}

TEST(PlanCacheLruTest, EvictionNeverInvalidatesOutstandingHandles) {
  PlanCache cache(/*capacity=*/1);
  auto first = std::make_shared<CachedPlan>();
  first->param_count = 7;
  cache.Put("a", first);
  const std::shared_ptr<const CachedPlan> handle = cache.Lookup("a");
  ASSERT_NE(handle, nullptr);
  cache.Put("b", std::make_shared<CachedPlan>());  // evicts "a"
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  // The prepared-statement handle still owns the plan.
  EXPECT_EQ(handle->param_count, 7);
}

TEST_F(PlanCacheFixture, DisabledCacheMissesEverythingAndRejectsPrepare) {
  db_.plan_cache().set_enabled(false);
  const size_t size0 = cache().size();
  // Execution still works — every statement takes the parse-per-statement
  // ablation path — but nothing enters the cache.
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t").rows.at(0).at(0).as_int(), 3);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t").rows.at(0).at(0).as_int(), 3);
  EXPECT_EQ(cache().size(), size0);
  EXPECT_THROW(exec_.Prepare("SELECT 1"), UsageError);
  db_.plan_cache().set_enabled(true);
}

TEST_F(PlanCacheFixture, PreparedPlanReportsParameterCount) {
  const auto plan =
      exec_.Prepare("SELECT v FROM t WHERE id = ? OR v > ?");
  EXPECT_EQ(plan->param_count, 2);
  const auto none = exec_.Prepare("SELECT v FROM t");
  EXPECT_EQ(none->param_count, 0);
}

}  // namespace
}  // namespace sqloop::minidb
