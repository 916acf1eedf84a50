#include "src/common/checksum.h"

#include <array>
#include <cstddef>

namespace wdg {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8: tables[0] is the classic byte table; tables[k][b] is the CRC
// of byte b followed by k zero bytes, so eight input bytes fold into the
// running CRC with eight independent lookups per step.
constexpr CrcTables BuildTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr CrcTables kTables = BuildTables();

// Little-endian word assembled from bytes: byte order independent, and
// compilers fold it into one unaligned load on little-endian targets.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, std::string_view data) {
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  uint32_t c = crc ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xffu] ^
        kTables[2][(hi >> 8) & 0xffu] ^ kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32(std::string_view data) { return Crc32Extend(0, data); }

}  // namespace wdg
