#include "common/checksum.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace sqloop {
namespace {

/// The bytewise CRC-32 the slicing-by-8 loop must reproduce exactly.
uint32_t BytewiseCrc32(const unsigned char* data, size_t length) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < length; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesZlibCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndAlignment) {
  Rng rng(11);
  std::vector<unsigned char> bytes(300);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.NextUint64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; offset + length <= 80; ++length) {
      EXPECT_EQ(Crc32(bytes.data() + offset, length),
                BytewiseCrc32(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
            BytewiseCrc32(bytes.data(), bytes.size()));
}

TEST(Crc32, IncrementalChunksEqualOneShot) {
  Rng rng(5);
  std::vector<unsigned char> bytes(1000);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.NextUint64());
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split : {size_t{1}, size_t{7}, size_t{8}, size_t{13},
                       size_t{500}, size_t{999}}) {
    const uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace sqloop
