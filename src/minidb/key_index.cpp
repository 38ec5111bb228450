#include "minidb/key_index.h"

#include <algorithm>
#include <bit>

namespace sqloop::minidb {
namespace {

constexpr size_t kMinBuckets = 16;

}  // namespace

void KeyIndex::Reset(size_t expected) {
  next_.clear();
  hashes_.clear();
  next_.reserve(expected);
  hashes_.reserve(expected);
  count_ = 0;
  const size_t buckets = std::bit_ceil(std::max(expected, kMinBuckets));
  heads_.assign(buckets, kNone);
  tails_.assign(buckets, kNone);
  shift_ = 64 - std::countr_zero(buckets);
}

void KeyIndex::Insert(uint32_t ordinal, size_t hash) {
  if (count_ >= heads_.size()) {
    Rehash(std::max(heads_.size() * 2, kMinBuckets));  // load factor <= 1
  }
  if (ordinal >= next_.size()) {
    next_.resize(size_t{ordinal} + 1);
    hashes_.resize(size_t{ordinal} + 1);
  }
  hashes_[ordinal] = hash;
  Link(ordinal);
  ++count_;
}

void KeyIndex::Link(uint32_t ordinal) {
  const size_t bucket = Bucket(hashes_[ordinal]);
  next_[ordinal] = kNone;
  if (tails_[bucket] == kNone) {
    heads_[bucket] = ordinal;
  } else {
    next_[tails_[bucket]] = ordinal;
  }
  tails_[bucket] = ordinal;
}

void KeyIndex::Rehash(size_t buckets) {
  // Buckets only ever grow by powers of two, and a bucket is the top bits
  // of the scrambled hash, so each new bucket draws from exactly one old
  // bucket: relinking old chains front to back keeps every new chain in
  // ordinal order.
  std::vector<uint32_t> old_heads(buckets, kNone);
  old_heads.swap(heads_);
  tails_.assign(buckets, kNone);
  shift_ = 64 - std::countr_zero(buckets);
  for (const uint32_t head : old_heads) {
    for (uint32_t at = head; at != kNone;) {
      const uint32_t next = next_[at];
      Link(at);
      at = next;
    }
  }
}

}  // namespace sqloop::minidb
