// Slotted pages: the unit of storage, spill, and checksum maintenance for
// paged tables (DESIGN.md "Paged storage & buffer pool").
//
// A page owns up to kPageRowCapacity consecutive row slots of one table.
// Global row ids are stable: row_id = page_index * kPageRowCapacity + slot,
// so tombstone bitmaps, indexes, and scan cursors are untouched by paging.
// A page is either *resident* (rows materialized in `rows`) or *spilled*
// (rows serialized into the table's spill file; `rows` empty). The buffer
// pool owns every state transition; table code touches `rows` only while
// the page is pinned (or, for unbounded pools that never evict, at will).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "minidb/schema.h"

namespace sqloop::minidb {

class BufferPool;
class Table;

/// Row slots per page. A power of two so the row-id split is a shift/mask.
/// 1024 keeps the hit-path scan within a few percent of a flat row
/// vector (longer contiguous header runs between page boundaries) while
/// the eviction granule stays fine enough for double-digit-KB pool
/// budgets; 512 measurably pays more boundary cost and 2048 regresses
/// again on allocator size-class placement (bench/micro_storage).
inline constexpr size_t kPageRowShift = 10;
inline constexpr size_t kPageRowCapacity = size_t{1} << kPageRowShift;
inline constexpr size_t kPageRowMask = kPageRowCapacity - 1;

struct Page {
  Table* owner = nullptr;    // back-pointer for spill I/O and accounting
  size_t index = 0;          // page number within the table
  uint32_t row_count = 0;    // slots in use (live + emptied tombstones)
  std::vector<Row> rows;     // resident payloads; empty while spilled

  bool resident = true;
  bool dirty = true;         // diverges from the spill image (new pages do)
  bool referenced = false;   // clock second-chance bit
  uint32_t pins = 0;         // >0 pins the page in memory

  /// Estimated payload bytes (sum of RowFootprintBytes over slots in use);
  /// what eviction frees and fault-in re-charges.
  int64_t bytes = 0;

  /// Mod-2^64 sum of live-row FNV hashes on this page: the page-granular
  /// shard of the table's content checksum, kept while spilled so a scrub
  /// can localize corruption to one page without trusting its payload.
  uint64_t hash_sum = 0;

  /// Spill-file slot (valid when spill_length > 0); a page re-spills in
  /// place when its new image fits, else appends a fresh slot.
  uint64_t spill_offset = 0;
  uint64_t spill_length = 0;

  /// Intrusive position in the pool's clock ring (index into the ring
  /// vector; -1 while unregistered).
  ptrdiff_t ring_pos = -1;
};

/// Serializes the page image (u32 row count, u32 column count, tagged cell
/// values, CRC-32 footer) into `out` (appended).
void SerializePage(const Page& page, std::string* out);

/// Rebuilds `page->rows` from a serialized image. Throws IntegrityError on
/// CRC mismatch, truncation, or a row count that disagrees with the page
/// header — a torn or corrupted spill slot must never become silent wrong
/// rows. `what` labels the error ("table 't' page 3").
void DeserializePage(const char* data, size_t length, Page* page,
                     const std::string& what);

/// Statement-scoped pin ledger. The executor installs one per statement
/// (thread-local); every row view the engine hands out is backed by a page
/// pinned here, so views stay valid until the statement completes — the
/// paged equivalent of the borrowed-relation lifetime rules. Scopes nest
/// (a nested statement or dump installs its own and restores the previous
/// on destruction).
///
/// Windows (Mark/ReleaseTo) let provably non-retaining scans — batched
/// aggregation, projection that copies values out, DML loops — drop their
/// pins batch-by-batch, which is what keeps a full-table pass over a
/// spilled table inside the pool budget.
class PinScope {
 public:
  PinScope();
  ~PinScope();

  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

  /// The innermost scope installed on this thread (null outside the
  /// engine; Table then pins transiently and documents the hazard).
  static PinScope* Current() noexcept;

  /// True when `page` is already pinned by this scope (dedup fast path:
  /// one pool interaction per page per scope region, not per row).
  bool Holds(const Page* page) const noexcept {
    return page == last_ || held_.contains(page);
  }

  /// Records a pin this scope now owns (the caller already pinned it in
  /// `pool`); released at ReleaseTo/destruction.
  void Add(BufferPool* pool, Page* page);

  /// Window support: everything pinned after Mark() is released by
  /// ReleaseTo(mark). Strictly nested (LIFO) use only.
  size_t Mark() const noexcept { return pinned_.size(); }
  void ReleaseTo(size_t mark) noexcept;

  /// RAII window over the innermost scope; no-op when none is installed.
  class Window {
   public:
    Window() : scope_(PinScope::Current()),
               mark_(scope_ != nullptr ? scope_->Mark() : 0) {}
    ~Window() { Reset(); }
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;
    /// Releases the window's pins now (and keeps the window usable: the
    /// mark stays, so a scan loop can Reset() once per batch).
    void Reset() noexcept {
      if (scope_ != nullptr) scope_->ReleaseTo(mark_);
    }

   private:
    PinScope* scope_;
    size_t mark_;
  };

 private:
  struct Entry {
    BufferPool* pool;
    Page* page;
  };
  std::vector<Entry> pinned_;
  std::unordered_set<const Page*> held_;
  const Page* last_ = nullptr;  // most recently added (single-entry cache)
  PinScope* previous_ = nullptr;
};

}  // namespace sqloop::minidb
