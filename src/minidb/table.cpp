#include "minidb/table.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "minidb/buffer_pool.h"

namespace sqloop::minidb {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Table::~Table() {
  // Deregister from the pool first: after ForgetTable returns, the evictor
  // and writer can never touch this table's pages or spill file again.
  if (pool_ != nullptr) pool_->ForgetTable(this);
  // Return the whole reservation: a dropped table's memory leaves the
  // database scope the moment the last reference dies.
  const int64_t held = tracked_bytes_.load(std::memory_order_relaxed);
  if (tracker_ != nullptr && held > 0) tracker_->Release(held);
}

void Table::ConfigureStorage(std::shared_ptr<BufferPool> pool) {
  pool_ = std::move(pool);
  spill_enabled_ = pool_ != nullptr && pool_->bounded();
}

void Table::OnPageResidencyDelta(int64_t delta) noexcept { Account(delta); }

void Table::Account(int64_t delta) noexcept {
  tracked_bytes_.fetch_add(delta, std::memory_order_relaxed);
  if (tracker_ == nullptr || delta == 0) return;
  if (delta > 0) {
    tracker_->ChargeUnchecked(delta);
  } else {
    tracker_->Release(-delta);
  }
}

Table::PagePin::PagePin(const Table* table, Page* page)
    : table_(table), page_(page) {
  if (table_->spill_enabled_) table_->pool_->Pin(page_);
}

Table::PagePin::~PagePin() {
  if (table_->spill_enabled_) table_->pool_->Unpin(page_);
}

void Table::PinForRead(Page* page) const {
  PinScope* scope = PinScope::Current();
  if (scope != nullptr) {
    if (scope->Holds(page)) return;
    pool_->Pin(page);
    scope->Add(pool_.get(), page);
    return;
  }
  // No scope installed (out-of-engine caller, single-threaded by
  // contract): make the page resident and release immediately. The view
  // stays valid until the next pool interaction.
  pool_->Pin(page);
  pool_->Unpin(page);
}

Page* Table::TailPageForInsert() {
  if (!pages_.empty() && pages_.back()->row_count < kPageRowCapacity) {
    return pages_.back().get();
  }
  auto page = std::make_unique<Page>();
  page->owner = this;
  page->index = pages_.size();
  // Full capacity up front: appends into a pinned page must never move
  // rows other views on the same page still reference.
  page->rows.reserve(kPageRowCapacity);
  Page* raw = page.get();
  pages_.push_back(std::move(page));
  if (spill_enabled_) pool_->AddPage(raw);
  return raw;
}

size_t Table::Insert(Row row) {
  schema_.CoerceRow(row);
  const int pk = schema_.primary_key_index();
  if (pk >= 0) {
    const Value& key = row[pk];
    if (key.is_null()) {
      throw ExecutionError("NULL primary key in table '" + name_ + "'");
    }
    if (pk_index_.contains(key)) {
      throw ExecutionError("duplicate primary key " + key.ToString() +
                           " in table '" + name_ + "'");
    }
  }
  const size_t row_id = live_.size();
  Page* page = TailPageForInsert();
  const PagePin pin(this, page);
  page->rows.push_back(std::move(row));
  ++page->row_count;
  const Row& stored = page->rows.back();
  const int64_t row_bytes = RowFootprintBytes(stored);
  page->bytes += row_bytes;
  if (spill_enabled_) {
    pool_->PageGrew(page, row_bytes);
    pool_->MarkDirty(page);
  }
  if (integrity_enabled_) {
    const uint64_t hash = RowHash(stored);
    content_hash_ += hash;
    page->hash_sum += hash;
  }
  live_.push_back(1);
  ++live_rows_;
  if (pk >= 0) pk_index_.emplace(stored[pk], row_id);
  IndexInsert(row_id, stored);
  Account(row_bytes +
          kIndexEntryBytes * static_cast<int64_t>((pk >= 0 ? 1 : 0) +
                                                  secondary_indexes_.size()));
  return row_id;
}

const Row& Table::At(size_t row_id) const {
  Page* page = PageFor(row_id);
  if (spill_enabled_) PinForRead(page);
  return page->rows[row_id & kPageRowMask];
}

void Table::Update(size_t row_id, Row row) {
  schema_.CoerceRow(row);
  Page* page = PageFor(row_id);
  const PagePin pin(this, page);
  Row& stored = page->rows[row_id & kPageRowMask];
  const int pk = schema_.primary_key_index();
  if (pk >= 0) {
    const Value& old_key = stored[pk];
    const Value& new_key = row[pk];
    if (new_key.is_null()) {
      throw ExecutionError("NULL primary key in table '" + name_ + "'");
    }
    if (!Value::KeyEquals(old_key, new_key)) {
      if (pk_index_.contains(new_key)) {
        throw ExecutionError("duplicate primary key " + new_key.ToString() +
                             " in table '" + name_ + "'");
      }
      pk_index_.erase(old_key);
      pk_index_.emplace(new_key, row_id);
    }
  }
  IndexErase(row_id, stored);
  const int64_t old_bytes = RowFootprintBytes(stored);
  const uint64_t old_hash = integrity_enabled_ ? RowHash(stored) : 0;
  stored = std::move(row);
  const int64_t new_bytes = RowFootprintBytes(stored);
  if (integrity_enabled_) {
    const uint64_t new_hash = RowHash(stored);
    content_hash_ += new_hash - old_hash;
    page->hash_sum += new_hash - old_hash;
  }
  page->bytes += new_bytes - old_bytes;
  if (spill_enabled_) {
    pool_->PageGrew(page, new_bytes - old_bytes);
    pool_->MarkDirty(page);
  }
  Account(new_bytes - old_bytes);
  IndexInsert(row_id, stored);
}

void Table::Delete(size_t row_id) {
  if (!live_[row_id]) return;
  Page* page = PageFor(row_id);
  const PagePin pin(this, page);
  Row& stored = page->rows[row_id & kPageRowMask];
  const int pk = schema_.primary_key_index();
  if (pk >= 0) pk_index_.erase(stored[pk]);
  IndexErase(row_id, stored);
  if (integrity_enabled_) {
    const uint64_t hash = RowHash(stored);
    content_hash_ -= hash;
    page->hash_sum -= hash;
  }
  live_[row_id] = 0;
  --live_rows_;
  // The slot stays (row ids are stable) but its payload goes: a table
  // that churns through inserts and deletes, like a message outbox, must
  // not pin every tombstoned row's bytes until Clear().
  const int64_t freed = RowFootprintBytes(stored) - RowFootprintBytes(Row{});
  Row().swap(stored);
  page->bytes -= freed;
  if (spill_enabled_) {
    pool_->PageGrew(page, -freed);
    pool_->MarkDirty(page);
  }
  Account(-freed -
          kIndexEntryBytes * static_cast<int64_t>((pk >= 0 ? 1 : 0) +
                                                  secondary_indexes_.size()));
}

void Table::Clear() {
  if (pool_ != nullptr) pool_->ForgetTable(this);
  pages_.clear();
  live_.clear();
  live_rows_ = 0;
  content_hash_ = 0;
  pk_index_.clear();
  for (auto& [name, index] : secondary_indexes_) index.map.clear();
  Account(-tracked_bytes_.load(std::memory_order_relaxed));
}

int64_t Table::FindByPrimaryKey(const Value& key) const {
  if (schema_.primary_key_index() < 0) return -1;
  const auto it = pk_index_.find(key);
  return it == pk_index_.end() ? -1 : static_cast<int64_t>(it->second);
}

void Table::CreateIndex(const std::string& index_name,
                        const std::string& column_name) {
  const std::string folded = FoldIdentifier(index_name);
  if (secondary_indexes_.contains(folded)) {
    throw ExecutionError("index '" + index_name + "' already exists");
  }
  SecondaryIndex index;
  index.column = FoldIdentifier(column_name);
  index.column_index = schema_.FindColumn(index.column);
  if (index.column_index < 0) {
    throw ExecutionError("no column '" + column_name + "' in table '" +
                         name_ + "' to index");
  }
  for (const auto& owned : pages_) {
    Page* page = owned.get();
    const PagePin pin(this, page);
    const size_t base = page->index << kPageRowShift;
    for (size_t slot = 0; slot < page->row_count; ++slot) {
      if (live_[base + slot]) {
        index.map.emplace(page->rows[slot][index.column_index], base + slot);
      }
    }
  }
  Account(kIndexEntryBytes * static_cast<int64_t>(index.map.size()));
  secondary_indexes_.emplace(folded, std::move(index));
}

bool Table::DropIndex(const std::string& index_name) {
  const auto it = secondary_indexes_.find(FoldIdentifier(index_name));
  if (it == secondary_indexes_.end()) return false;
  Account(-kIndexEntryBytes * static_cast<int64_t>(it->second.map.size()));
  secondary_indexes_.erase(it);
  return true;
}

bool Table::HasIndexOn(const std::string& column_name) const {
  const std::string folded = FoldIdentifier(column_name);
  if (schema_.primary_key_index() >= 0 &&
      schema_.columns()[schema_.primary_key_index()].name == folded) {
    return true;
  }
  for (const auto& [name, index] : secondary_indexes_) {
    if (index.column == folded) return true;
  }
  return false;
}

void Table::IndexProbe(const std::string& column_name, const Value& key,
                       std::vector<size_t>& out) const {
  const std::string folded = FoldIdentifier(column_name);
  if (schema_.primary_key_index() >= 0 &&
      schema_.columns()[schema_.primary_key_index()].name == folded) {
    const int64_t row = FindByPrimaryKey(key);
    if (row >= 0) out.push_back(static_cast<size_t>(row));
    return;
  }
  for (const auto& [name, index] : secondary_indexes_) {
    if (index.column != folded) continue;
    const size_t first = out.size();
    const auto [begin, end] = index.map.equal_range(key);
    for (auto it = begin; it != end; ++it) out.push_back(it->second);
    // The hash multimap yields matches in unspecified order; restore scan
    // order so index and full scans visit rows identically.
    std::sort(out.begin() + static_cast<ptrdiff_t>(first), out.end());
    return;
  }
  throw UsageError("IndexProbe on unindexed column '" + column_name + "'");
}

std::vector<size_t> Table::IndexLookup(const std::string& column_name,
                                       const Value& key) const {
  std::vector<size_t> out;
  IndexProbe(column_name, key, out);
  return out;
}

size_t Table::FillBatch(size_t* cursor, const Row** out,
                        size_t capacity) const {
  size_t slot = *cursor;
  const size_t end = live_.size();
  // Pin once per page, then fill from its slot run. With no tombstones
  // every slot is live, so the batch is a straight run of row addresses
  // (the common case for append-only state tables).
  const bool dense = (live_rows_ == end);
  size_t filled = 0;
  while (slot < end && filled < capacity) {
    Page* page = PageFor(slot);
    if (spill_enabled_) PinForRead(page);
    const size_t page_end =
        std::min(end, ((slot >> kPageRowShift) + 1) << kPageRowShift);
    if (dense) {
      const size_t take = std::min(capacity - filled, page_end - slot);
      const Row* base = page->rows.data();
      const size_t offset = slot & kPageRowMask;
      for (size_t i = 0; i < take; ++i) out[filled++] = &base[offset + i];
      slot += take;
    } else {
      while (slot < page_end && filled < capacity) {
        if (live_[slot]) out[filled++] = &page->rows[slot & kPageRowMask];
        ++slot;
      }
    }
  }
  *cursor = slot;
  return filled;
}

size_t Table::FillBatchFromIds(const size_t* ids, size_t count,
                               const Row** out) const {
  for (size_t i = 0; i < count; ++i) {
    Page* page = PageFor(ids[i]);
    // Holds()' last-page cache makes this one pool call per page run:
    // probe results are sorted ascending, so runs are common.
    if (spill_enabled_) PinForRead(page);
    out[i] = &page->rows[ids[i] & kPageRowMask];
  }
  return count;
}

std::vector<Row> Table::SnapshotRows() const {
  std::vector<Row> out;
  out.reserve(live_rows_);
  for (const auto& owned : pages_) {
    Page* page = owned.get();
    const PagePin pin(this, page);
    const size_t base = page->index << kPageRowShift;
    for (size_t slot = 0; slot < page->row_count; ++slot) {
      if (live_[base + slot]) out.push_back(page->rows[slot]);
    }
  }
  return out;
}

void Table::RestoreRows(const std::vector<Row>& rows) {
  Clear();
  for (const Row& row : rows) Insert(row);
}

uint64_t Table::RowHash(const Row& row) noexcept {
  uint64_t hash = 14695981039346656037ull;
  const auto fold = [&hash](const void* data, size_t length) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < length; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  for (const Value& value : row) {
    const uint8_t tag = value.is_null()     ? 0
                        : value.is_int()    ? 1
                        : value.is_double() ? 2
                                            : 3;
    fold(&tag, sizeof(tag));
    if (value.is_null()) continue;
    if (value.is_int()) {
      const int64_t v = value.as_int();
      fold(&v, sizeof(v));
    } else if (value.is_double()) {
      // Raw bit pattern: the checksum must agree wherever the dump format
      // would (bit-identical doubles, no text formatting).
      const double d = value.as_double();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      fold(&bits, sizeof(bits));
    } else {
      const std::string& text = value.as_text();
      const uint64_t length = text.size();
      fold(&length, sizeof(length));
      fold(text.data(), text.size());
    }
  }
  return hash;
}

bool Table::VerifyContent(uint64_t* expected_out, uint64_t* actual_out,
                          int64_t* first_bad_page_out) const {
  if (first_bad_page_out != nullptr) *first_bad_page_out = -1;
  if (!integrity_enabled_) return true;
  uint64_t actual = 0;
  bool pages_ok = true;
  // Page-granular scrub: recompute each page's shard against its
  // maintained hash_sum, which localizes corruption to one page (and
  // catches two compensating corruptions the global sum would miss).
  for (const auto& owned : pages_) {
    Page* page = owned.get();
    const PagePin pin(this, page);
    uint64_t page_actual = 0;
    const size_t base = page->index << kPageRowShift;
    for (size_t slot = 0; slot < page->row_count; ++slot) {
      if (live_[base + slot]) page_actual += RowHash(page->rows[slot]);
    }
    if (page_actual != page->hash_sum) {
      pages_ok = false;
      if (first_bad_page_out != nullptr && *first_bad_page_out < 0) {
        *first_bad_page_out = static_cast<int64_t>(page->index);
      }
    }
    actual += page_actual;
  }
  if (expected_out != nullptr) *expected_out = content_hash_;
  if (actual_out != nullptr) *actual_out = actual;
  return actual == content_hash_ && pages_ok;
}

void Table::CorruptCellForTesting(size_t row_id, size_t column) {
  Page* page = PageFor(row_id);
  const PagePin pin(this, page);
  Value& cell = page->rows[row_id & kPageRowMask][column];
  if (cell.is_int()) {
    cell = Value(cell.as_int() ^ (int64_t{1} << 20));
  } else if (cell.is_double()) {
    double d = cell.as_double();
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    bits ^= 1ull << 20;
    std::memcpy(&d, &bits, sizeof(d));
    cell = Value(d);
  } else if (!cell.is_null()) {
    std::string text = cell.as_text();
    if (text.empty()) text.push_back('\x01');
    else text[0] = static_cast<char>(text[0] ^ 0x20);
    cell = Value(std::move(text));
  } else {
    cell = Value(int64_t{1});
  }
}

size_t Table::resident_page_count() const noexcept {
  // Test/bench hook; not synchronized against a concurrently evicting
  // pool — call only from quiesced contexts.
  size_t count = 0;
  for (const auto& owned : pages_) {
    if (owned->resident) ++count;
  }
  return count;
}

void Table::IndexInsert(size_t row_id, const Row& row) {
  for (auto& [name, index] : secondary_indexes_) {
    index.map.emplace(row[index.column_index], row_id);
  }
}

void Table::IndexErase(size_t row_id, const Row& row) {
  for (auto& [name, index] : secondary_indexes_) {
    const Value& key = row[index.column_index];
    const auto [begin, end] = index.map.equal_range(key);
    for (auto it = begin; it != end; ++it) {
      if (it->second == row_id) {
        index.map.erase(it);
        break;
      }
    }
  }
}

}  // namespace sqloop::minidb
