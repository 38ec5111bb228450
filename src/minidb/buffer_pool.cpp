#include "minidb/buffer_pool.h"

#include <chrono>
#include <filesystem>

#include "common/error.h"
#include "minidb/table.h"

namespace sqloop::minidb {

namespace fs = std::filesystem;

BufferPool::BufferPool(std::string spill_dir)
    : spill_dir_(std::move(spill_dir)) {}

BufferPool::~BufferPool() {
  {
    const std::scoped_lock lock(lock_);
    stop_writer_ = true;
  }
  writer_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  const std::scoped_lock lock(lock_);
  for (auto& [table, spill] : spill_files_) {
    if (spill.file != nullptr) std::fclose(spill.file);
    std::error_code ec;
    fs::remove(spill.path, ec);
  }
  spill_files_.clear();
  std::error_code ec;
  fs::remove(spill_dir_, ec);  // only succeeds when empty — intended
}

void BufferPool::set_budget_bytes(int64_t budget) {
  budget_.store(budget < 0 ? 0 : budget, std::memory_order_relaxed);
  bool start_writer = false;
  {
    const std::scoped_lock lock(lock_);
    if (budget > 0) {
      EvictUntil(budget);
      if (!writer_started_) {
        writer_started_ = true;
        start_writer = true;
      }
    }
  }
  if (start_writer) {
    writer_ = std::thread([this] { WriterLoop(); });
  }
}

void BufferPool::AddPage(Page* page) {
  const std::scoped_lock lock(lock_);
  page->ring_pos = static_cast<ptrdiff_t>(ring_.size());
  ring_.push_back(page);
  resident_bytes_ += page->bytes;
  if (resident_bytes_ > resident_peak_) resident_peak_ = resident_bytes_;
  const int64_t budget = budget_bytes();
  if (budget > 0 && resident_bytes_ > budget) EvictUntil(budget);
}

void BufferPool::PageGrew(Page* page, int64_t delta) {
  const std::scoped_lock lock(lock_);
  if (!page->resident) return;  // caller pins before growing; defensive
  resident_bytes_ += delta;
  if (resident_bytes_ > resident_peak_) resident_peak_ = resident_bytes_;
  const int64_t budget = budget_bytes();
  if (budget > 0 && resident_bytes_ > budget) EvictUntil(budget);
}

void BufferPool::Pin(Page* page) {
  const std::scoped_lock lock(lock_);
  ++page->pins;
  page->referenced = true;
  if (page->resident) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    const int64_t budget = budget_bytes();
    try {
      // Make room first: evicting after the load would hold the victims
      // and the incoming page at once, overshooting the budget by a page.
      if (budget > 0) EvictUntil(budget - page->bytes);
      FaultIn(page);
    } catch (...) {
      --page->pins;  // a failed fault-in must not leak the pin
      throw;
    }
    if (budget > 0 && resident_bytes_ > budget) EvictUntil(budget);
  }
}

void BufferPool::Unpin(Page* page) {
  const std::scoped_lock lock(lock_);
  if (page->pins > 0) --page->pins;
}

void BufferPool::MarkDirty(Page* page) {
  const std::scoped_lock lock(lock_);
  page->dirty = true;
}

void BufferPool::ForgetTable(Table* table) {
  const std::scoped_lock lock(lock_);
  for (size_t i = 0; i < ring_.size();) {
    if (ring_[i]->owner == table) {
      resident_bytes_ -= ring_[i]->bytes;
      ring_[i]->ring_pos = -1;
      ring_[i] = ring_.back();
      if (ring_[i]->ring_pos >= 0) {
        ring_[i]->ring_pos = static_cast<ptrdiff_t>(i);
      }
      ring_.pop_back();
    } else {
      ++i;
    }
  }
  if (hand_ >= ring_.size()) hand_ = 0;
  const auto it = spill_files_.find(table);
  if (it != spill_files_.end()) {
    if (it->second.file != nullptr) std::fclose(it->second.file);
    std::error_code ec;
    fs::remove(it->second.path, ec);
    spill_files_.erase(it);
  }
}

int64_t BufferPool::TryReclaim(int64_t bytes) {
  if (bytes <= 0) return 0;
  const std::scoped_lock lock(lock_);
  return EvictUntil(resident_bytes_ - bytes);
}

int64_t BufferPool::Shrink() {
  const std::scoped_lock lock(lock_);
  return EvictUntil(0);
}

BufferPool::Stats BufferPool::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.pages_evicted = pages_evicted_.load(std::memory_order_relaxed);
  out.bytes_spilled = bytes_spilled_.load(std::memory_order_relaxed);
  out.writebacks = writebacks_.load(std::memory_order_relaxed);
  out.budget_bytes = budget_bytes();
  const std::scoped_lock lock(lock_);
  out.resident_bytes = resident_bytes_;
  out.resident_peak = resident_peak_;
  return out;
}

int64_t BufferPool::EvictUntil(int64_t target) {
  if (target < 0) target = 0;
  int64_t freed = 0;
  // Two full sweeps bound the clock: the first clears reference bits, the
  // second takes every unpinned victim. If a sweep pair frees nothing the
  // remaining pages are all pinned and the pool is allowed to overshoot
  // (pins are statement-scoped, so pressure resolves when they drain).
  size_t attempts = 0;
  const size_t max_attempts = ring_.size() * 2;
  while (resident_bytes_ > target && !ring_.empty() &&
         attempts < max_attempts) {
    if (hand_ >= ring_.size()) hand_ = 0;
    Page* page = ring_[hand_];
    if (page->pins > 0) {
      ++hand_;
      ++attempts;
      continue;
    }
    if (page->referenced) {
      page->referenced = false;
      ++hand_;
      ++attempts;
      continue;
    }
    // Victim: write back if dirty, then drop the payload.
    if (page->dirty) WriteBack(page);
    std::vector<Row>().swap(page->rows);
    page->resident = false;
    resident_bytes_ -= page->bytes;
    freed += page->bytes;
    page->owner->OnPageResidencyDelta(-page->bytes);
    pages_evicted_.fetch_add(1, std::memory_order_relaxed);
    RingRemove(page);
    ++attempts;
  }
  return freed;
}

void BufferPool::WriteBack(Page* page) {
  SpillFile& spill = SpillFor(page->owner);
  std::string image;
  SerializePage(*page, &image);
  uint64_t offset;
  if (page->spill_length > 0 && image.size() <= page->spill_length) {
    offset = page->spill_offset;  // reuse the slot in place
  } else {
    offset = spill.end_offset;
    spill.end_offset += image.size();
  }
  if (std::fseek(spill.file, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fwrite(image.data(), 1, image.size(), spill.file) !=
          image.size()) {
    throw ExecutionError("buffer pool failed to spill page " +
                         std::to_string(page->index) + " of table '" +
                         page->owner->name() + "' to '" + spill.path + "'");
  }
  page->spill_offset = offset;
  page->spill_length = image.size();
  page->dirty = false;
  bytes_spilled_.fetch_add(image.size(), std::memory_order_relaxed);
}

void BufferPool::FaultIn(Page* page) {
  if (page->spill_length == 0) {
    throw ExecutionError("buffer pool has no spill image for page " +
                         std::to_string(page->index) + " of table '" +
                         page->owner->name() + "'");
  }
  SpillFile& spill = SpillFor(page->owner);
  std::string image(page->spill_length, '\0');
  if (std::fseek(spill.file, static_cast<long>(page->spill_offset),
                 SEEK_SET) != 0 ||
      std::fread(image.data(), 1, image.size(), spill.file) !=
          image.size()) {
    throw IntegrityError("buffer pool failed to reload page " +
                         std::to_string(page->index) + " of table '" +
                         page->owner->name() + "' from '" + spill.path +
                         "'");
  }
  DeserializePage(image.data(), image.size(), page,
                  "table '" + page->owner->name() + "' page " +
                      std::to_string(page->index));
  page->resident = true;
  page->dirty = false;
  page->referenced = true;
  page->ring_pos = static_cast<ptrdiff_t>(ring_.size());
  ring_.push_back(page);
  resident_bytes_ += page->bytes;
  if (resident_bytes_ > resident_peak_) resident_peak_ = resident_bytes_;
  page->owner->OnPageResidencyDelta(page->bytes);
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

BufferPool::SpillFile& BufferPool::SpillFor(Table* table) {
  auto it = spill_files_.find(table);
  if (it != spill_files_.end() && it->second.file != nullptr) {
    return it->second;
  }
  std::error_code ec;
  fs::create_directories(spill_dir_, ec);
  static std::atomic<uint64_t> next_id{0};
  SpillFile spill;
  spill.path = spill_dir_ + "/" + table->name() + "_" +
               std::to_string(next_id.fetch_add(1)) + ".spill";
  spill.file = std::fopen(spill.path.c_str(), "wb+");
  if (spill.file == nullptr) {
    throw ExecutionError("buffer pool cannot create spill file '" +
                         spill.path + "'");
  }
  auto [pos, inserted] = spill_files_.insert_or_assign(table, spill);
  return pos->second;
}

void BufferPool::WriterLoop() {
  std::unique_lock lock(lock_);
  while (!stop_writer_) {
    writer_cv_.wait_for(lock, std::chrono::milliseconds(25),
                        [this] { return stop_writer_; });
    if (stop_writer_) break;
    // Clean a few cold dirty pages per tick so evictions mostly find
    // clean victims and drop them without I/O on the reader's thread.
    size_t cleaned = 0;
    for (size_t i = 0; i < ring_.size() && cleaned < 4; ++i) {
      Page* page = ring_[i];
      if (page->dirty && page->pins == 0 && !page->referenced &&
          page->resident) {
        WriteBack(page);
        writebacks_.fetch_add(1, std::memory_order_relaxed);
        ++cleaned;
      }
    }
  }
}

}  // namespace sqloop::minidb
