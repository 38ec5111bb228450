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
// Locking: the pool mutex guards page metadata only — pin counts,
// residency, dirty and reference bits, the I/O flag, the clock ring and
// the resident-byte figures. Spill-file reads and writes, (de)serialization
// and CRC work run with it released: the thread that set a page's `io`
// flag owns the page's payload until it clears the flag, and a Pin that
// finds the flag set waits on the pool's condition variable. Callers hold
// table locks *before* the pool mutex and the pool never takes a table
// lock, so the order is acyclic. Page payloads are otherwise only touched
// by threads holding a pin — eviction only picks unpinned pages and marks
// them in I/O before it lets go of the mutex — so the pin/unpin mutex pair
// is the happens-before edge between a writer's mutation and the
// evictor's serialization.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "minidb/page.h"

namespace sqloop::minidb {

class Table;

class BufferPool {
 public:
  /// Pool activity: the pool's lifetime totals (Stats) and, per thread,
  /// what that thread caused since it last called TakeThreadCounters.
  struct Counters {
    uint64_t hits = 0;            // pins satisfied by a resident page
    uint64_t misses = 0;          // pins that faulted the page in
    uint64_t pages_evicted = 0;
    uint64_t bytes_spilled = 0;   // bytes written to spill files

    Counters& operator+=(const Counters& other) noexcept {
      hits += other.hits;
      misses += other.misses;
      pages_evicted += other.pages_evicted;
      bytes_spilled += other.bytes_spilled;
      return *this;
    }
  };

  struct Stats : Counters {
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

  /// Registers a freshly created, still empty resident page in the clock
  /// ring. It holds no row bytes yet, so registering never evicts; the
  /// first PageWritten on it does, once the caller has it pinned.
  void AddPage(Page* page);

  /// Accounts a mutation of a pinned page in one call: its bytes changed
  /// by `delta` and its payload now diverges from its spill image. Evicts
  /// colder pages if the budget is now crossed.
  void PageWritten(Page* page, int64_t delta);

  /// Pins `page` (faulting it in from the spill file when evicted, or
  /// waiting out an I/O in flight on it) and sets the clock-reference bit.
  /// Pairs with Unpin.
  void Pin(Page* page);
  void Unpin(Page* page);

  /// Unregisters `pages` — every page of `table` — once no write-back is
  /// in flight on them. The table's spill file stays open, and its space
  /// is reused from offset 0 (Table::Clear).
  void ForgetPages(const Table* table,
                   std::span<const std::unique_ptr<Page>> pages);
  /// ForgetPages, then closes and removes the table's spill file (the
  /// table's destructor).
  void ForgetTable(const Table* table,
                   std::span<const std::unique_ptr<Page>> pages);

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

  /// Returns the calling thread's pool activity (summed over every pool)
  /// since its previous call, and resets it. The executor drains it once
  /// per statement, so each connection reports what it caused.
  static Counters TakeThreadCounters() noexcept;

 private:
  /// One per table for the table's lifetime: opened on the first
  /// write-back, rewound (not re-created) by ForgetPages.
  struct SpillFile {
    std::string path;
    std::once_flag opened;
    int fd = -1;
    std::atomic<uint64_t> end{0};  // next free byte; slots are appended
  };
  using Lock = std::unique_lock<std::mutex>;

  /// Under `lock`: evicts clock-ring pages (skipping pinned pages and
  /// pages in I/O, giving referenced ones a second chance) until resident
  /// bytes fit in `target` or no victim remains. Returns bytes freed.
  int64_t EvictUntil(Lock& lock, int64_t target);
  /// Under `lock`: evicts the unpinned resident `page`. It is marked in
  /// I/O and leaves the resident figure at once; the lock is released
  /// while a dirty page is serialized and written back (in place when the
  /// new image fits its slot, appended otherwise) and its payload freed.
  void Evict(Lock& lock, Page* page);
  /// Under `lock`, for a pinned spilled page: makes room, then reads,
  /// checks and deserializes its image with the lock released. On failure
  /// the pin is dropped and the I/O state cleared before rethrowing.
  void FaultIn(Lock& lock, Page* page);
  /// Under lock_: resident bytes grew by `delta` (peak tracking).
  void AddResident(int64_t delta) noexcept;
  /// Under lock_: adds `delta` to the pool totals and this thread's.
  void Tally(const Counters& delta) noexcept;
  /// Under lock_: clock-ring membership (swap-with-last removal).
  void RingAdd(Page* page);
  void RingRemove(Page* page);
  /// Under lock_: `table`'s spill file entry, created on first use.
  SpillFile& SpillFor(const Table* table);
  void Forget(const Table* table,
              std::span<const std::unique_ptr<Page>> pages, bool drop_file);

  const std::string spill_dir_;
  std::atomic<int64_t> budget_{0};

  mutable std::mutex lock_;
  std::condition_variable io_done_;  // some page's `io` flag cleared
  std::vector<Page*> ring_;  // clock ring over registered resident pages
  size_t hand_ = 0;
  std::unordered_map<const Table*, SpillFile> spill_files_;
  int64_t resident_bytes_ = 0;
  int64_t resident_peak_ = 0;
  Counters totals_;
};

}  // namespace sqloop::minidb
