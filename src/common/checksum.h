// CRC-32 (IEEE 802.3 polynomial, reflected) used to seal checkpoint
// artifacts and buffer-pool spill images: minidb table dumps carry a CRC
// footer and checkpoint manifests end in a crc= line, so torn or
// bit-rotted files are detected at recovery time instead of silently
// resuming from garbage.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sqloop {

namespace detail {
/// Slicing-by-8 tables: Crc32Tables()[0] is the classic bytewise table,
/// and table k advances a byte's contribution by k further zero bytes, so
/// eight input bytes fold into the CRC with eight independent lookups.
inline const std::array<std::array<uint32_t, 256>, 8>& Crc32Tables() {
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian load, independent of the host byte order (compilers fold
/// it into one load on little-endian targets).
inline uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}
}  // namespace detail

/// Incremental CRC-32: feed chunks by passing the previous return value as
/// `crc` (start with 0). Matches zlib's crc32() for the same byte stream.
inline uint32_t Crc32(const void* data, size_t length, uint32_t crc = 0) {
  const auto& t = detail::Crc32Tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; length >= 8; bytes += 8, length -= 8) {
    const uint32_t lo = c ^ detail::LoadLe32(bytes);
    const uint32_t hi = detail::LoadLe32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; length > 0; ++bytes, --length) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace sqloop
