// Paged table with a primary-key hash index and optional secondary hash
// indexes. Rows are stored in insertion order with tombstones; the
// table-level reader/writer lock lives here (the engine's unit of locking,
// like MyISAM's table locks).
//
// Rows live on fixed-capacity slotted pages (DESIGN.md "Paged storage &
// buffer pool"). Row ids are stable (page = id / capacity, slot = id %
// capacity), so indexes, tombstone bitmaps, and scan cursors address rows
// without caring whether a page is resident or spilled. Whether pages can
// be evicted is decided by the buffer pool the table is configured with:
// none, or an unbounded one, keeps every page resident with no pinning.
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "minidb/page.h"
#include "minidb/schema.h"

namespace sqloop::minidb {

class BufferPool;

class Table {
 public:
  Table(std::string name, Schema schema);
  ~Table();

  const std::string& name() const noexcept { return name_; }
  const Schema& schema() const noexcept { return schema_; }

  /// Attaches the database-scope memory tracker this table's storage is
  /// accounted against (row payloads + hash-index entries). Set once by
  /// Database before the table is published; the destructor returns the
  /// whole reservation. Charges are unchecked — a storage mutation must
  /// never be aborted half-applied by a budget (enforcement happens on the
  /// statement-scoped transient side and at the server watermarks).
  void set_memory_tracker(MemoryTracker* tracker) noexcept {
    tracker_ = tracker;
  }

  /// Puts the table's pages behind `pool`. Set by Database before the
  /// table is published (mirrors set_memory_tracker); must not change once
  /// rows exist. Whether the table's pages participate in eviction is
  /// latched here from the pool's budget: pages of a table created under
  /// an unbounded pool (or with no pool) are never evicted, so its readers
  /// skip pin bookkeeping entirely.
  void ConfigureStorage(std::shared_ptr<BufferPool> pool);

  /// True when this table's pages can be evicted (bounded pool at
  /// creation). The executor prefers copy-out scans with windowed pins
  /// over whole-table borrowed views for such tables, so a full pass
  /// stays inside the pool budget.
  bool spill_enabled() const noexcept { return spill_enabled_; }

  /// Estimated bytes this table currently holds resident (live rows and
  /// the empty slots of deleted ones on resident pages, primary-key and
  /// secondary-index entries). Spilled pages leave this figure — that is
  /// exactly how quota pressure is relieved by eviction.
  int64_t tracked_bytes() const noexcept {
    return tracked_bytes_.load(std::memory_order_relaxed);
  }

  /// Buffer-pool callback (under the pool mutex): `delta` bytes of this
  /// table's pages entered (+) or left (-) residency.
  void OnPageResidencyDelta(int64_t delta) noexcept;

  /// The lock the executor takes (shared for reads, exclusive for writes).
  std::shared_mutex& lock() const noexcept { return lock_; }

  // All methods below assume the caller holds the appropriate lock.

  /// Appends a row (coerced to the schema). Enforces primary-key
  /// uniqueness when the schema declares one. Returns the row id.
  size_t Insert(Row row);

  size_t live_row_count() const noexcept { return live_rows_; }
  size_t slot_count() const noexcept { return live_.size(); }
  bool IsLive(size_t row_id) const noexcept { return live_[row_id]; }

  /// Row view by id. For spill-enabled tables the backing page is pinned
  /// into the current PinScope (the executor installs one per statement),
  /// so the reference stays valid until the scope — or its innermost
  /// window — releases. Without a scope the page is faulted in and left
  /// unpinned: safe for single-threaded out-of-engine callers only.
  const Row& At(size_t row_id) const;

  /// Overwrites the row in place (coerced; primary key must not change to
  /// a value already used by another live row). Keeps indexes in sync.
  void Update(size_t row_id, Row row);

  /// Tombstones the row and frees its payload; the empty slot keeps the
  /// row ids of later rows stable.
  void Delete(size_t row_id);
  void Clear();

  /// Primary-key point lookup; returns -1 if absent or no PK declared.
  int64_t FindByPrimaryKey(const Value& key) const;

  /// Creates a single-column secondary hash index. (Multi-column CREATE
  /// INDEX statements index their first column; see DESIGN.md.)
  void CreateIndex(const std::string& index_name,
                   const std::string& column_name);
  bool DropIndex(const std::string& index_name);
  bool HasIndexOn(const std::string& column_name) const;

  /// Appends the live row ids whose `column` equals `key` (primary key or
  /// secondary index) to `out`, sorted ascending — i.e. in insertion/scan
  /// order. Allocation-free when the caller reuses `out`'s capacity across
  /// probes; the batched scan does, and relies on the ordering so an
  /// index scan visits rows in the same order a full scan would (keeps
  /// batch-engine results bit-identical to the materializing path).
  /// Precondition: HasIndexOn(column).
  void IndexProbe(const std::string& column_name, const Value& key,
                  std::vector<size_t>& out) const;

  /// Row ids of live rows whose `column` equals `key`, via IndexProbe
  /// (sorted ascending). Precondition: HasIndexOn(column).
  std::vector<size_t> IndexLookup(const std::string& column_name,
                                  const Value& key) const;

  // --- batch extraction (vectorized scan path; see minidb/batch.h) ------

  /// Fills `out` with up to `capacity` live row views starting at slot
  /// `*cursor` (skipping tombstones) and advances the cursor past the
  /// visited slots. Returns the lane count; 0 means the scan is exhausted.
  /// Views follow the borrowed-relation lifetime rules; on a spill-enabled
  /// table this is pin → straight-run fill → (scope-deferred) unpin per
  /// page.
  size_t FillBatch(size_t* cursor, const Row** out, size_t capacity) const;

  /// Fills `out` with the row views for `ids[0..count)` (an IndexProbe
  /// result slice, already in scan order). Returns `count`.
  size_t FillBatchFromIds(const size_t* ids, size_t count,
                          const Row** out) const;

  /// Snapshot of all live rows (used for transaction rollback backups).
  std::vector<Row> SnapshotRows() const;

  /// Replaces the whole content (rollback restore).
  void RestoreRows(const std::vector<Row>& rows);

  // --- end-to-end content integrity (DESIGN.md "Durability & integrity") -

  /// Enables incremental content-checksum maintenance. Set by Database
  /// before the table is published (mirrors set_memory_tracker); flipping
  /// it later resets the running checksum, so only do so on empty tables.
  void set_integrity_enabled(bool enabled) noexcept {
    integrity_enabled_ = enabled;
    if (!enabled) content_hash_ = 0;
  }
  bool integrity_enabled() const noexcept { return integrity_enabled_; }

  /// The incrementally-maintained content checksum: the mod-2^64 sum of
  /// every live row's FNV-1a hash (order-independent, so it is identical
  /// across execution modes that insert rows in different orders — and
  /// across pool budgets, which only decide where pages live).
  uint64_t content_hash() const noexcept { return content_hash_; }

  /// Recomputes the checksum from the live rows and compares it to the
  /// maintained one (the CHECK TABLE / scrub primitive; caller holds at
  /// least the shared lock). On mismatch returns false and fills the
  /// optional out-params. Always true when integrity is disabled.
  /// Verification runs page by page against the per-page hash shards, so
  /// `first_bad_page_out` can localize the damage.
  bool VerifyContent(uint64_t* expected_out = nullptr,
                     uint64_t* actual_out = nullptr,
                     int64_t* first_bad_page_out = nullptr) const;

  /// Marks/queries the quarantine flag: a table whose scrub failed is
  /// fenced off so every subsequent statement touching it fails with
  /// IntegrityError instead of reading corrupt rows. Cleared by dropping
  /// and re-creating the table (which RESTORE TABLE does).
  void set_quarantined(bool q) noexcept {
    quarantined_.store(q, std::memory_order_relaxed);
  }
  bool quarantined() const noexcept {
    return quarantined_.load(std::memory_order_relaxed);
  }

  /// Test hook: flips one bit of a stored cell *without* updating the
  /// maintained checksum — simulated silent memory/storage corruption for
  /// scrub tests. Caller holds the exclusive lock. (On a spill-enabled
  /// table a clean page's eviction+reload can heal the corruption — the
  /// spill image was serialized before the flip; that behaviour is itself
  /// under test.)
  void CorruptCellForTesting(size_t row_id, size_t column);

  /// Test/bench hook: number of pages currently materialized in memory.
  size_t resident_page_count() const noexcept;
  size_t page_count() const noexcept { return pages_.size(); }

 private:
  struct SecondaryIndex {
    std::string column;
    int column_index = -1;
    std::unordered_multimap<Value, size_t, ValueKeyHash, ValueKeyEq> map;
  };

  /// RAII pin held across a mutation (or an internal whole-table sweep)
  /// so the pool's evictor never serializes a half-mutated page. No-op
  /// unless the table is spill-enabled.
  class PagePin {
   public:
    PagePin(const Table* table, Page* page);
    ~PagePin();
    PagePin(const PagePin&) = delete;
    PagePin& operator=(const PagePin&) = delete;

   private:
    const Table* table_;
    Page* page_;
  };

  Page* PageFor(size_t row_id) const noexcept {
    return pages_[row_id >> kPageRowShift].get();
  }
  /// Scope-aware read pin (see At()).
  void PinForRead(Page* page) const;
  /// The tail page with room for one more row (creates and registers a
  /// fresh one when needed).
  Page* TailPageForInsert();

  void IndexInsert(size_t row_id, const Row& row);
  void IndexErase(size_t row_id, const Row& row);
  /// FNV-1a over one row's cells (type tags + raw payload bits; doubles by
  /// bit pattern, matching the dump format's exactness guarantees).
  static uint64_t RowHash(const Row& row) noexcept;
  /// Adjusts the storage accounting by `delta` bytes.
  void Account(int64_t delta) noexcept;
  /// Estimated bytes of one hash-index entry (key copy + bucket node).
  static constexpr int64_t kIndexEntryBytes = 64;

  std::string name_;
  Schema schema_;
  MemoryTracker* tracker_ = nullptr;
  std::atomic<int64_t> tracked_bytes_{0};
  mutable std::shared_mutex lock_;

  // Pages are stable heap objects: growing the table never moves a row.
  std::vector<std::unique_ptr<Page>> pages_;
  std::shared_ptr<BufferPool> pool_;
  bool spill_enabled_ = false;

  std::vector<char> live_;
  size_t live_rows_ = 0;

  bool integrity_enabled_ = false;
  /// Sum (mod 2^64) of RowHash over live rows. A sum, not an XOR: two
  /// identical rows would cancel under XOR and vanish from the checksum.
  uint64_t content_hash_ = 0;
  std::atomic<bool> quarantined_{false};

  std::unordered_map<Value, size_t, ValueKeyHash, ValueKeyEq> pk_index_;
  std::unordered_map<std::string, SecondaryIndex> secondary_indexes_;
};

}  // namespace sqloop::minidb
