// Per-database plan cache: the compile-once half of the prepared-execution
// path (paper §V — an iterative query re-executes the same small statement
// set every round, so parse/bind cost must not scale with rounds × tasks).
//
// A cache entry is keyed by (engine profile, normalized SQL text) and is a
// parse plus a lock set, with different lifetimes:
//   * the parsed AST — a pure function of the text, shared immutably and
//     never invalidated;
//   * the bound lock plan (base tables to lock, views expanded, and the
//     SELECT cores a bound range can prove empty) — valid only for the
//     catalog version it was computed under. Any DDL (including index
//     DDL) bumps Database::catalog_version(), and the next lookup re-binds
//     it from the cached AST without re-parsing.
// Name resolution and access-path choice (index probe or full scan,
// predicate kernels) happen at execution time against the live catalog,
// so a cached plan can never read a dropped index.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sql/ast.h"

namespace sqloop::minidb {

/// A SELECT core whose bound values alone can prove it returns no rows:
/// it reads one base table, has no aggregate, `*`, GROUP BY or HAVING,
/// every WHERE conjunct compares a numeric column with a literal or `?`,
/// and some column is bounded from both sides. Such a conjunct never
/// raises an error for a numeric or NULL value, so an execution whose
/// bound window admits no value answers the core without reading (or
/// locking) its table — e.g. a Gather's idle outbox arm, `seq > 7 AND
/// seq <= 7`. Identified by position, not pointer: every prepared handle
/// executes its own clone of the AST.
struct RangeCore {
  /// Position in the statement's pre-order core walk (ForEachCore).
  uint32_t ordinal = 0;
  /// Index into LockPlan::entries of the table the core reads.
  uint32_t lock_entry = 0;
  /// (lower, upper) WHERE-conjunct ordinals bounding one column.
  std::vector<std::pair<uint32_t, uint32_t>> windows;
};

/// The precomputed "physical" part of a plan: every base table the
/// statement locks up front, as (folded name, needs exclusive lock).
/// Table pointers are re-resolved at acquisition time, so a drop/recreate
/// of a listed table is safe. Statement kinds that lock inside their own
/// execution path (DDL, TRUNCATE, transactions) have an empty entry list.
struct LockPlan {
  std::vector<std::pair<std::string, bool>> entries;
  /// INSERT ... SELECT / UPDATE ... FROM (subquery) whose source does not
  /// read the written table: the source is evaluated to owned rows under
  /// the shared locks alone, and the exclusive lock covers only the apply
  /// phase, so a writer never holds readers off while it computes what to
  /// write.
  bool phased = false;
  /// The SELECT / INSERT ... SELECT source's range cores in walk order,
  /// and per entry whether it is locked whatever their windows (written,
  /// or read by anything but a range core). Column types are part of the
  /// proof, so both hold only under `catalog_version`.
  std::vector<RangeCore> range_cores;
  std::vector<uint8_t> pinned;
  uint64_t catalog_version = 0;
};

/// One compiled statement: immutable AST plus the lock plan bound under
/// `bound_version`. Shared between the cache and any prepared statements
/// holding the handle — eviction never invalidates outstanding handles.
struct CachedPlan {
  std::shared_ptr<const sql::Statement> ast;
  std::shared_ptr<const LockPlan> locks;
  uint64_t bound_version = 0;
  int param_count = 0;  // number of `?` placeholders in the statement
};

/// Canonical cache-key spelling of a statement: whitespace runs collapsed
/// (outside quoted regions), trailing semicolons stripped.
std::string NormalizeSqlKey(std::string_view sql);

/// Thread-safe LRU cache of CachedPlan entries. One instance per Database;
/// capacity-capped because every distinct statement text a long-lived
/// database ever sees (each job's setup DDL names its own tables) would
/// otherwise grow the cache without bound.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the entry for `key` (touching it as most-recently-used) or
  /// nullptr. Counts a hit or a miss.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key);

  /// Inserts or replaces the entry for `key`, evicting the least recently
  /// used entry when over capacity.
  void Put(const std::string& key, std::shared_ptr<const CachedPlan> plan);

  void Clear();

  /// A disabled cache makes Lookup always miss and Put a no-op — the
  /// `--no-plan-cache` ablation path (every statement re-parses).
  void set_enabled(bool enabled) noexcept { enabled_.store(enabled); }
  bool enabled() const noexcept { return enabled_.load(); }

  /// Counts a bind-layer refresh after a catalog change (the parse was
  /// reused; only the lock plan was recomputed).
  void NoteRebind() noexcept { rebinds_.fetch_add(1, std::memory_order_relaxed); }

  /// Counts a hit served from an executor's connection-local plan map
  /// (same semantic event as a Lookup hit, but the shared map was never
  /// touched — see Executor::Prepare).
  void NoteLocalHit() noexcept { hits_.fetch_add(1, std::memory_order_relaxed); }

  // --- observability ----------------------------------------------------
  // Counters are atomics so hot-path notes (local hits, rebinds) never
  // contend on the map mutex.
  uint64_t hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const noexcept { return misses_.load(std::memory_order_relaxed); }
  uint64_t rebinds() const noexcept { return rebinds_.load(std::memory_order_relaxed); }
  uint64_t evictions() const noexcept { return evictions_.load(std::memory_order_relaxed); }
  size_t size() const;
  size_t capacity() const noexcept { return capacity_; }

 private:
  using LruList = std::list<std::string>;

  struct Slot {
    std::shared_ptr<const CachedPlan> plan;
    LruList::iterator lru_position;
  };

  const size_t capacity_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Slot> entries_;
  LruList lru_;  // front = most recently used
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> rebinds_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace sqloop::minidb
