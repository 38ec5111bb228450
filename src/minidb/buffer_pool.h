// Clock buffer pool over the slotted pages of one database (DESIGN.md
// "Paged storage & buffer pool").
//
// Budgeted ("bounded") pools evict unpinned pages to a per-table spill
// file when resident bytes cross the budget; unbounded pools (budget 0,
// the default) register nothing and never evict, so their tables keep
// every page in memory with no pin bookkeeping — the same page layout a
// bounded pool uses, which makes an unbounded database the differential
// oracle for a bounded one.
// Whether a table participates is latched at table creation (see
// Table::ConfigureStorage): readers of never-evictable tables skip pin
// bookkeeping entirely, which is what keeps the hit-path overhead low.
//
// Locking: one pool mutex guards every page state transition (pin counts,
// residency, dirty bits, the clock ring) and the spill-file I/O. Callers
// hold table locks *before* the pool mutex and the pool never takes a
// table lock, so the order is acyclic. Page payloads (`Page::rows`) are
// only touched by threads holding a pin — eviction and write-back only
// handle unpinned pages — so the pin/unpin mutex pair is the
// happens-before edge between a writer's mutation and the evictor's
// serialization.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "minidb/page.h"

namespace sqloop::minidb {

class Table;

class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;            // pins satisfied by a resident page
    uint64_t misses = 0;          // pins that faulted the page in
    uint64_t pages_evicted = 0;
    uint64_t bytes_spilled = 0;   // bytes written to spill files
    uint64_t writebacks = 0;      // background clean-ahead page writes
    int64_t resident_bytes = 0;   // registered pages currently in memory
    int64_t resident_peak = 0;
    int64_t budget_bytes = 0;     // 0 = unbounded
  };

  /// `spill_dir` hosts the per-table spill files; created lazily on first
  /// spill and removed (best effort) on destruction.
  explicit BufferPool(std::string spill_dir);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Resident-byte budget; 0 = unbounded. Tables latch their eviction
  /// participation at creation, so set the budget (URL knob
  /// `buffer_pool_bytes`) before the workload creates its tables.
  void set_budget_bytes(int64_t budget);
  int64_t budget_bytes() const noexcept {
    return budget_.load(std::memory_order_relaxed);
  }
  bool bounded() const noexcept { return budget_bytes() > 0; }

  // --- table-facing API (callers hold the table's lock) -----------------

  /// Registers a freshly created resident page in the clock ring and
  /// evicts colder pages if the budget is now crossed.
  void AddPage(Page* page);

  /// Accounts a resident page growing by `delta` bytes (inserts into the
  /// tail page; row updates in place).
  void PageGrew(Page* page, int64_t delta);

  /// Pins `page` (faulting it in from the spill file when evicted) and
  /// sets the clock-reference bit. Pairs with Unpin.
  void Pin(Page* page);
  void Unpin(Page* page);

  /// Marks a pinned page's payload as diverged from its spill image.
  void MarkDirty(Page* page);

  /// Drops every pool registration and the spill file of `table`
  /// (Table::Clear and the table destructor).
  void ForgetTable(Table* table);

  // --- pressure hooks ---------------------------------------------------

  /// Evicts cold pages until at least `bytes` were freed or nothing
  /// unpinned remains. Returns the bytes actually freed. Installed as the
  /// database tracker's reclaimer, so quota pressure evicts before a
  /// statement sees QuotaExceededError; also the JobServer's shed-mode
  /// shrink primitive.
  int64_t TryReclaim(int64_t bytes);

  /// Evicts everything unpinned (shed mode). Returns the bytes freed.
  int64_t Shrink();

  Stats stats() const;

 private:
  struct SpillFile {
    std::FILE* file = nullptr;
    std::string path;
    uint64_t end_offset = 0;
  };

  /// Under lock_: evicts clock-ring pages (skipping pinned ones, giving
  /// referenced ones a second chance) until resident bytes fit in
  /// `target` or no victim remains. Returns bytes freed.
  int64_t EvictUntil(int64_t target);
  /// Under lock_: serializes `page` into its table's spill file (in place
  /// when the new image fits, appended otherwise) and clears dirty.
  void WriteBack(Page* page);
  /// Under lock_: reloads a spilled page's rows and re-registers it.
  void FaultIn(Page* page);
  /// Under lock_: removes `page` from the clock ring (swap-with-last).
  void RingRemove(Page* page);
  SpillFile& SpillFor(Table* table);
  void WriterLoop();

  const std::string spill_dir_;
  std::atomic<int64_t> budget_{0};

  mutable std::mutex lock_;
  std::vector<Page*> ring_;  // clock ring over registered resident pages
  size_t hand_ = 0;
  std::unordered_map<Table*, SpillFile> spill_files_;
  int64_t resident_bytes_ = 0;
  int64_t resident_peak_ = 0;

  // Background write-back: cleans a few dirty unpinned pages per tick so
  // evictions mostly find clean victims (drop, no I/O). Started when the
  // pool first becomes bounded.
  std::thread writer_;
  std::condition_variable writer_cv_;
  bool stop_writer_ = false;
  bool writer_started_ = false;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> pages_evicted_{0};
  std::atomic<uint64_t> bytes_spilled_{0};
  std::atomic<uint64_t> writebacks_{0};
};

}  // namespace sqloop::minidb
