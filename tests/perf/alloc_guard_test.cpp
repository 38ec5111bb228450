// Allocation guard for the hash operators (ctest label: perf). A counting
// global operator new measures one statement of the shape every SQLoop
// Compute runs — a hash join feeding a hash GROUP BY into an
// INSERT ... SELECT — over N and 4N joined rows into a few groups. The
// KeyIndex hashes and compares keys in place, the joined row is rebuilt in
// one buffer and the group key in one probe row, so the statement's
// allocations must not grow with the joined rows: the bound is one per
// eight joined rows plus a constant, at both sizes. (Row-keyed std::
// containers paid at least two per joined row: the combined row and the
// group key.) Counts are deterministic, so the guard cannot flake under
// load.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "minidb/database.h"
#include "minidb/executor.h"

namespace {

// Counted on the measuring thread only, so a stray background thread
// cannot move the number.
thread_local bool t_counting = false;
thread_local int64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sqloop::minidb {
namespace {

constexpr int64_t kGroups = 4;
// Per-statement allocations that do not depend on the row count: the
// statement's plan and lock set, the scans' view lists, the KeyIndex
// arrays, the join's staging rows, the groups and the inserted rows.
constexpr int64_t kConstantAllocations = 200;

/// Allocations of one `INSERT INTO out SELECT ... JOIN ... GROUP BY` over
/// `joined` joined rows (a warm-up run parses and caches the statement).
int64_t CountJoinAggregateAllocations(int64_t joined) {
  Database db("alloc", EngineProfile::Postgres());
  Executor exec(db);
  exec.ExecuteSql("CREATE TABLE pt (id BIGINT, rank DOUBLE PRECISION)");
  exec.ExecuteSql(
      "CREATE TABLE mj (src BIGINT, dst BIGINT, w DOUBLE PRECISION)");
  exec.ExecuteSql("CREATE TABLE out (dst BIGINT, total DOUBLE PRECISION)");
  for (int64_t start = 0; start < joined; start += 256) {
    std::string pt = "INSERT INTO pt VALUES ";
    std::string mj = "INSERT INTO mj VALUES ";
    for (int64_t i = start; i < std::min(joined, start + 256); ++i) {
      const std::string sep = i > start ? ", " : "";
      pt += sep + "(" + std::to_string(i) + ", 0.5)";
      mj += sep + "(" + std::to_string(i) + ", " +
            std::to_string(i % kGroups) + ", 0.25)";
    }
    exec.ExecuteSql(pt);
    exec.ExecuteSql(mj);
  }
  const std::string produce =
      "INSERT INTO out SELECT mj.dst, SUM(pt.rank * mj.w) FROM pt "
      "JOIN mj ON pt.id = mj.src GROUP BY mj.dst";
  exec.ExecuteSql(produce);
  t_allocations = 0;
  t_counting = true;
  const auto result = exec.ExecuteSql(produce);
  t_counting = false;
  EXPECT_EQ(result.affected_rows, static_cast<size_t>(kGroups));
  return t_allocations;
}

TEST(AllocationGuard, HashJoinGroupByStaysBelowOnePerEightJoinedRows) {
  for (const int64_t joined : {int64_t{4096}, int64_t{4 * 4096}}) {
    const int64_t allocations = CountJoinAggregateAllocations(joined);
    EXPECT_LT(allocations, joined / 8 + kConstantAllocations)
        << joined << " joined rows";
  }
}

}  // namespace
}  // namespace sqloop::minidb
