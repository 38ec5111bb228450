// KeyIndex: the one hash structure behind minidb's hash operators — the
// hash join's build side, hash GROUP BY, DISTINCT/UNION dedupe and
// UPDATE ... FROM matching (DESIGN.md "The SELECT engine").
//
// A chained hash index over row ordinals. It stores no keys: an entry is
// an ordinal into the caller's own rows (build rows, a group-key arena,
// kept output rows), its cached key hash and a `next` link. A lookup walks
// one bucket's chain and hands each ordinal whose cached hash matches to
// the caller's predicate, which compares the key in place with
// Value::KeyEquals. Chains stay in ordinal order, so a walk yields matches
// in insertion order: join matches in build order, the first occurrence of
// a group or a DISTINCT row, the first source row of UPDATE ... FROM.
// Nothing is allocated per row or per key; the arrays grow geometrically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sql/value.h"

namespace sqloop::minidb {

class KeyIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Key hashing: a key of values v0..vn-1 hashes as
  /// Mix(...Mix(kSeed, v0)..., vn-1). Value::Hash agrees with
  /// Value::KeyEquals, so 1 and 1.0 (and two NULLs) hash alike.
  static constexpr size_t kSeed = 0x9E3779B97F4A7C15ULL;
  static size_t Mix(size_t hash, const Value& value) noexcept {
    return hash * 31 + value.Hash();
  }

  /// Empties the index and sizes its buckets for `expected` entries.
  void Reset(size_t expected);

  /// Links `ordinal` under `hash`. Ordinals must ascend across calls;
  /// gaps are allowed (a skipped ordinal is simply never found).
  void Insert(uint32_t ordinal, size_t hash);

  /// The first ordinal, in insertion order, whose cached hash equals
  /// `hash` and for which `matches(ordinal)` holds; kNone if none.
  template <typename Matches>
  uint32_t Find(size_t hash, Matches&& matches) const {
    if (count_ == 0) return kNone;
    return Walk(heads_[Bucket(hash)], hash, matches);
  }
  /// The match after `ordinal`, which Find or FindNext returned for the
  /// same hash and predicate.
  template <typename Matches>
  uint32_t FindNext(uint32_t ordinal, size_t hash, Matches&& matches) const {
    return Walk(next_[ordinal], hash, matches);
  }

 private:
  // Value::Hash is the identity on integers, so the bucket is taken from
  // the top bits of a multiplicative scramble (Fibonacci hashing) rather
  // than the low bits of the hash.
  size_t Bucket(size_t hash) const noexcept {
    return (hash * 0x9E3779B97F4A7C15ULL) >> shift_;
  }
  template <typename Matches>
  uint32_t Walk(uint32_t at, size_t hash, Matches& matches) const {
    for (; at != kNone; at = next_[at]) {
      if (hashes_[at] == hash && matches(at)) return at;
    }
    return kNone;
  }
  void Link(uint32_t ordinal);
  void Rehash(size_t buckets);

  std::vector<uint32_t> heads_;  // per bucket: first ordinal of the chain
  std::vector<uint32_t> tails_;  // per bucket: last ordinal of the chain
  std::vector<uint32_t> next_;   // per ordinal: next ordinal in its chain
  std::vector<size_t> hashes_;   // per ordinal: cached key hash
  size_t count_ = 0;             // linked ordinals
  int shift_ = 64;               // 64 - log2(bucket count)
};

}  // namespace sqloop::minidb
