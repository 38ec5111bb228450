#include "minidb/buffer_pool.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>

#include "common/error.h"
#include "minidb/table.h"

namespace sqloop::minidb {

namespace fs = std::filesystem;

namespace {

thread_local BufferPool::Counters t_counters;

std::string PageLabel(const Page& page) {
  return "page " + std::to_string(page.index) + " of table '" +
         page.owner->name() + "'";
}

/// Positional write/read of a whole buffer (no shared file offset, so
/// threads spilling or loading different pages of one file never race).
bool WriteAt(int fd, const char* data, size_t length, uint64_t offset) {
  while (length > 0) {
    const ssize_t n = ::pwrite(fd, data, length, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    length -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return true;
}

bool ReadAt(int fd, char* data, size_t length, uint64_t offset) {
  while (length > 0) {
    const ssize_t n = ::pread(fd, data, length, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    length -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return true;
}

}  // namespace

BufferPool::BufferPool(std::string spill_dir)
    : spill_dir_(std::move(spill_dir)) {}

BufferPool::~BufferPool() {
  const std::scoped_lock lock(lock_);
  for (auto& [table, spill] : spill_files_) {
    if (spill.fd >= 0) ::close(spill.fd);
    std::error_code ec;
    fs::remove(spill.path, ec);
  }
  spill_files_.clear();
  std::error_code ec;
  fs::remove(spill_dir_, ec);  // only succeeds when empty — intended
}

void BufferPool::set_budget_bytes(int64_t budget) {
  budget_.store(budget < 0 ? 0 : budget, std::memory_order_relaxed);
  if (budget > 0) {
    Lock lock(lock_);
    EvictUntil(lock, budget);
  }
}

void BufferPool::AddPage(Page* page) {
  const std::scoped_lock lock(lock_);
  RingAdd(page);
  AddResident(page->bytes);
}

void BufferPool::PageWritten(Page* page, int64_t delta) {
  Lock lock(lock_);
  page->dirty = true;
  AddResident(delta);
  const int64_t budget = budget_bytes();
  if (budget > 0 && resident_bytes_ > budget) EvictUntil(lock, budget);
}

void BufferPool::Pin(Page* page) {
  Lock lock(lock_);
  io_done_.wait(lock, [page] { return !page->io; });
  ++page->pins;
  page->referenced = true;
  if (page->resident) {
    Tally({.hits = 1});
    return;
  }
  Tally({.misses = 1});
  FaultIn(lock, page);
}

void BufferPool::Unpin(Page* page) {
  const std::scoped_lock lock(lock_);
  if (page->pins > 0) --page->pins;
}

void BufferPool::ForgetPages(const Table* table,
                             std::span<const std::unique_ptr<Page>> pages) {
  Forget(table, pages, /*drop_file=*/false);
}

void BufferPool::ForgetTable(const Table* table,
                             std::span<const std::unique_ptr<Page>> pages) {
  Forget(table, pages, /*drop_file=*/true);
}

void BufferPool::Forget(const Table* table,
                        std::span<const std::unique_ptr<Page>> pages,
                        bool drop_file) {
  Lock lock(lock_);
  // Only an evictor on another thread can hold one of these pages in I/O
  // (the caller owns the table exclusively); the page objects and the
  // spill file must outlive its write-back.
  io_done_.wait(lock, [pages] {
    return std::none_of(pages.begin(), pages.end(),
                        [](const auto& page) { return page->io; });
  });
  for (const auto& page : pages) {
    if (page->ring_pos < 0) continue;
    resident_bytes_ -= page->bytes;
    RingRemove(page.get());
  }
  const auto it = spill_files_.find(table);
  if (it == spill_files_.end()) return;
  if (!drop_file) {
    it->second.end.store(0);
    return;
  }
  if (it->second.fd >= 0) ::close(it->second.fd);
  std::error_code ec;
  fs::remove(it->second.path, ec);
  spill_files_.erase(it);
}

int64_t BufferPool::TryReclaim(int64_t bytes) {
  if (bytes <= 0) return 0;
  Lock lock(lock_);
  return EvictUntil(lock, resident_bytes_ - bytes);
}

int64_t BufferPool::Shrink() {
  Lock lock(lock_);
  return EvictUntil(lock, 0);
}

BufferPool::Stats BufferPool::stats() const {
  Stats out;
  out.budget_bytes = budget_bytes();
  const std::scoped_lock lock(lock_);
  static_cast<Counters&>(out) = totals_;
  out.resident_bytes = resident_bytes_;
  out.resident_peak = resident_peak_;
  return out;
}

BufferPool::Counters BufferPool::TakeThreadCounters() noexcept {
  const Counters out = t_counters;
  t_counters = {};
  return out;
}

int64_t BufferPool::EvictUntil(Lock& lock, int64_t target) {
  if (target < 0) target = 0;
  int64_t freed = 0;
  // Two full sweeps bound the clock: the first clears reference bits, the
  // second takes every unpinned victim. If a sweep pair frees nothing the
  // remaining pages are all pinned (or in I/O) and the pool is allowed to
  // overshoot (pins are statement-scoped, so pressure resolves when they
  // drain). Evict releases the lock, so the ring may change between
  // steps; every step still counts toward the bound.
  size_t attempts = 0;
  const size_t max_attempts = ring_.size() * 2;
  while (resident_bytes_ > target && !ring_.empty() &&
         attempts < max_attempts) {
    ++attempts;
    if (hand_ >= ring_.size()) hand_ = 0;
    Page* page = ring_[hand_];
    if (page->pins > 0 || page->io) {
      ++hand_;
      continue;
    }
    if (page->referenced) {
      page->referenced = false;
      ++hand_;
      continue;
    }
    freed += page->bytes;
    Evict(lock, page);
  }
  return freed;
}

void BufferPool::Evict(Lock& lock, Page* page) {
  page->io = true;
  const int64_t bytes = page->bytes;
  resident_bytes_ -= bytes;
  SpillFile* spill = page->dirty ? &SpillFor(page->owner) : nullptr;
  lock.unlock();
  uint64_t spilled = 0;
  try {
    if (spill != nullptr) {
      std::call_once(spill->opened, [this, spill] {
        std::error_code ec;
        fs::create_directories(spill_dir_, ec);
        const int fd = ::open(spill->path.c_str(),
                              O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
        if (fd < 0) {
          throw ExecutionError("buffer pool cannot create spill file '" +
                               spill->path + "'");
        }
        spill->fd = fd;
      });
      std::string image;
      SerializePage(*page, &image);
      uint64_t offset = page->spill_offset;
      if (page->spill_length == 0 || image.size() > page->spill_length) {
        offset = spill->end.fetch_add(image.size());
      }
      if (!WriteAt(spill->fd, image.data(), image.size(), offset)) {
        throw ExecutionError("buffer pool failed to spill " +
                             PageLabel(*page) + " to '" + spill->path + "'");
      }
      page->spill_offset = offset;
      page->spill_length = image.size();
      spilled = image.size();
    }
  } catch (...) {
    lock.lock();
    resident_bytes_ += bytes;  // the page stays resident and dirty
    page->io = false;
    io_done_.notify_all();
    throw;
  }
  std::vector<Row>().swap(page->rows);
  lock.lock();
  page->dirty = false;
  page->resident = false;
  page->io = false;
  RingRemove(page);
  io_done_.notify_all();
  page->owner->OnPageResidencyDelta(-bytes);
  Tally({.pages_evicted = 1, .bytes_spilled = spilled});
}

void BufferPool::FaultIn(Lock& lock, Page* page) {
  page->io = true;
  bool reserved = false;
  try {
    if (page->spill_length == 0) {
      throw ExecutionError("buffer pool has no spill image for " +
                           PageLabel(*page));
    }
    // Make room first: evicting after the load would hold the victims
    // and the incoming page at once, overshooting the budget by a page.
    // The page's bytes are charged before the read, so a concurrent
    // fault-in sees the room as taken.
    const int64_t budget = budget_bytes();
    if (budget > 0) EvictUntil(lock, budget - page->bytes);
    AddResident(page->bytes);
    reserved = true;
    const SpillFile& spill = SpillFor(page->owner);
    lock.unlock();
    std::string image(page->spill_length, '\0');
    if (!ReadAt(spill.fd, image.data(), image.size(), page->spill_offset)) {
      throw IntegrityError("buffer pool failed to reload " +
                           PageLabel(*page) + " from '" + spill.path + "'");
    }
    DeserializePage(image.data(), image.size(), page, PageLabel(*page));
    lock.lock();
  } catch (...) {
    if (!lock.owns_lock()) lock.lock();
    if (reserved) resident_bytes_ -= page->bytes;
    std::vector<Row>().swap(page->rows);  // a partial load leaves nothing
    --page->pins;                         // nor a leaked pin
    page->io = false;
    io_done_.notify_all();
    throw;
  }
  page->resident = true;
  page->dirty = false;
  page->referenced = true;
  page->io = false;
  RingAdd(page);
  io_done_.notify_all();
  page->owner->OnPageResidencyDelta(page->bytes);
  const int64_t budget = budget_bytes();
  if (budget > 0 && resident_bytes_ > budget) EvictUntil(lock, budget);
}

void BufferPool::AddResident(int64_t delta) noexcept {
  resident_bytes_ += delta;
  if (resident_bytes_ > resident_peak_) resident_peak_ = resident_bytes_;
}

void BufferPool::Tally(const Counters& delta) noexcept {
  totals_ += delta;
  t_counters += delta;
}

void BufferPool::RingAdd(Page* page) {
  page->ring_pos = static_cast<ptrdiff_t>(ring_.size());
  ring_.push_back(page);
}

void BufferPool::RingRemove(Page* page) {
  const size_t pos = static_cast<size_t>(page->ring_pos);
  page->ring_pos = -1;
  Page* last = ring_.back();
  ring_.pop_back();
  if (pos < ring_.size()) {
    ring_[pos] = last;
    last->ring_pos = static_cast<ptrdiff_t>(pos);
  }
  if (hand_ >= ring_.size()) hand_ = 0;
}

BufferPool::SpillFile& BufferPool::SpillFor(const Table* table) {
  const auto [it, inserted] = spill_files_.try_emplace(table);
  if (inserted) {
    static std::atomic<uint64_t> next_id{0};
    it->second.path = spill_dir_ + "/" + table->name() + "_" +
                      std::to_string(next_id.fetch_add(1)) + ".spill";
  }
  return it->second;
}

}  // namespace sqloop::minidb
