// A minidb database: catalog of tables and views plus the engine profile.
// Thread-safe for concurrent connections; the catalog has its own RW lock
// and each table carries a table-level RW lock (see table.h).
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "minidb/buffer_pool.h"
#include "minidb/engine_profile.h"
#include "minidb/plan_cache.h"
#include "minidb/table.h"
#include "sql/ast.h"

namespace sqloop::minidb {

class Database {
 public:
  /// `server_tracker`, when given, parents this database's memory scope so
  /// table storage and statement working sets roll up to the server-wide
  /// watermark accounting (Server::CreateDatabase passes its own tracker;
  /// a standalone Database is its own accounting root).
  explicit Database(std::string name,
                    EngineProfile profile = EngineProfile::Canonical(),
                    std::shared_ptr<MemoryTracker> server_tracker = nullptr);

  const std::string& name() const noexcept { return name_; }
  const EngineProfile& profile() const noexcept { return profile_; }

  /// The database-scope memory accountant: every table's storage charges
  /// here (see Table::set_memory_tracker), and each connection's statement
  /// working set parents here by default. Rolls up to the server tracker
  /// when one was attached at construction.
  MemoryTracker& memory_tracker() noexcept { return tracker_; }
  const MemoryTracker& memory_tracker() const noexcept { return tracker_; }

  /// The buffer pool behind every table's pages (see DESIGN.md "Paged
  /// storage & buffer pool"). Unbounded until a budget is set; a database
  /// left unbounded is the differential oracle for a bounded one — same
  /// page layout, no eviction — so results must be bit-identical.
  BufferPool& buffer_pool() noexcept { return *pool_; }
  const BufferPool& buffer_pool() const noexcept { return *pool_; }

  /// Caps the pool's resident bytes (URL knob `buffer_pool_bytes`; 0 =
  /// unbounded). Tables latch their eviction participation at creation,
  /// so set this before the workload creates its tables.
  void set_buffer_pool_bytes(int64_t bytes) { pool_->set_budget_bytes(bytes); }

  // --- catalog operations (internally locked) -------------------------

  void CreateTable(const std::string& table_name, Schema schema,
                   bool if_not_exists);
  bool DropTable(const std::string& table_name, bool if_exists);

  void CreateView(const std::string& view_name, sql::SelectPtr definition);
  bool DropView(const std::string& view_name, bool if_exists);

  /// Looks up a table; returns nullptr if absent. The returned pointer
  /// stays valid until the table is dropped (shared ownership).
  std::shared_ptr<Table> FindTable(const std::string& table_name) const;

  /// Looks up a view definition; returns nullptr if absent.
  std::shared_ptr<const sql::SelectStmt> FindView(
      const std::string& view_name) const;

  bool HasTable(const std::string& table_name) const;
  bool HasView(const std::string& view_name) const;

  std::vector<std::string> TableNames() const;

  // --- plan cache & catalog versioning ---------------------------------
  // Every DDL statement (table/view changes here; index DDL via the
  // executor) bumps the catalog version; cached plans bound under an older
  // version are re-bound — never re-parsed — on their next lookup.

  PlanCache& plan_cache() noexcept { return plan_cache_; }
  const PlanCache& plan_cache() const noexcept { return plan_cache_; }

  uint64_t catalog_version() const noexcept {
    return catalog_version_.load(std::memory_order_acquire);
  }
  void BumpCatalogVersion() noexcept {
    catalog_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  // --- execution pipeline toggle ---------------------------------------
  // The fused, zero-copy SELECT pipeline is on by default; switching it
  // off routes every statement through the reference materializing path.
  // Exists for the differential test suite and A/B benchmarks (see
  // DESIGN.md "Execution pipeline"), not as a tuning knob.

  void set_fused_enabled(bool enabled) noexcept {
    fused_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool fused_enabled() const noexcept {
    return fused_enabled_.load(std::memory_order_relaxed);
  }

  // --- vectorized batch execution toggle --------------------------------
  // The batched data plane (minidb/batch.h) sits in front of the fused
  // row-at-a-time path and is on by default; switching it off keeps fusion
  // but routes every core through the scalar per-row sinks. Only takes
  // effect while fusion is enabled (the reference path never batches).
  // Exists for the three-way differential suite and the vectorized-on/off
  // A/B benchmark (see DESIGN.md "Vectorized execution").

  void set_vectorized_enabled(bool enabled) noexcept {
    vectorized_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool vectorized_enabled() const noexcept {
    return vectorized_enabled_.load(std::memory_order_relaxed);
  }

  // --- governance toggle -----------------------------------------------
  // Memory accounting is on by default; switching it off makes new
  // connections attach no tracker, so the engine's per-row charge hooks
  // reduce to a null check. Exists for the accounting-overhead A/B bench
  // (bench/micro_governance), not as a tuning knob: budgets, watermarks,
  // and quota errors all need the accounting on.

  void set_governance_enabled(bool enabled) noexcept {
    governance_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool governance_enabled() const noexcept {
    return governance_enabled_.load(std::memory_order_relaxed);
  }

  // --- integrity toggle -------------------------------------------------
  // Per-table content checksums are maintained on every mutation by
  // default; switching this off makes tables created afterwards skip the
  // maintenance (CHECK TABLE then trivially passes on them). Exists for
  // the checksum-overhead A/B bench (bench/micro_integrity), not as a
  // tuning knob: scrub detection and quarantine need the checksums on.

  void set_integrity_enabled(bool enabled) noexcept {
    integrity_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool integrity_enabled() const noexcept {
    return integrity_enabled_.load(std::memory_order_relaxed);
  }

  // --- connection accounting -------------------------------------------
  // The dbc layer reports opens/closes so resilience tests can assert that
  // a failed parallel run leaks no live connections.
  void OnConnectionOpened() noexcept { open_connections_.fetch_add(1); }
  void OnConnectionClosed() noexcept { open_connections_.fetch_sub(1); }
  int open_connections() const noexcept { return open_connections_.load(); }

 private:
  std::string name_;
  std::atomic<int> open_connections_{0};
  EngineProfile profile_;
  // Keep-alive for the parent scope: the server's tracker must outlive
  // this database's (declared before tracker_ so it is destroyed after).
  std::shared_ptr<MemoryTracker> server_tracker_;
  MemoryTracker tracker_;
  // Declared before tables_: table destructors deregister from the pool,
  // so the pool must be destroyed after the catalog.
  std::shared_ptr<BufferPool> pool_;
  mutable std::shared_mutex catalog_lock_;
  std::unordered_map<std::string, std::shared_ptr<Table>> tables_;
  std::unordered_map<std::string, std::shared_ptr<const sql::SelectStmt>>
      views_;
  std::atomic<uint64_t> catalog_version_{0};
  std::atomic<bool> fused_enabled_{true};
  std::atomic<bool> vectorized_enabled_{true};
  std::atomic<bool> governance_enabled_{true};
  std::atomic<bool> integrity_enabled_{true};
  PlanCache plan_cache_;
};

}  // namespace sqloop::minidb
