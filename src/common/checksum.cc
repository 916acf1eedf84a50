#include "src/common/checksum.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// The running (pre-inverted) CRC register `c` extended over n bytes.
uint32_t SliceBy8(uint32_t c, const uint8_t* p, size_t n) {
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
  return c;
}

#if defined(__x86_64__)

constexpr size_t kFoldMin = 64;

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009), bit-reflected constants
// for the IEEE polynomial: k1/k2 fold 512 bits ahead, k3/k4 fold 128 bits
// ahead, k5 folds 64 -> 32 bits, and poly = {P', mu} drives the Barrett
// reduction to the 32-bit remainder.
//
// x = clmul(x.lo, k.lo) ^ clmul(x.hi, k.hi) ^ next: the 128-bit lane x moved
// forward over the distance k encodes, then merged with the next 16 bytes.
__attribute__((target("pclmul"))) __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

__m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// The running CRC register `c` extended over n bytes; n >= 64 and a multiple
// of 16.
__attribute__((target("pclmul"))) uint32_t FoldCrc32(uint32_t c, const uint8_t* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  // Four lanes, one 64-byte step at a time; the CRC so far enters as the
  // first four bytes of input.
  __m128i x1 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = Fold(x1, k3k4, Load128(p));
  }

  // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32.
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x10), _mm_srli_si128(x1, 8));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00),
                     _mm_srli_si128(x1, 4));

  // Barrett reduction: the remainder lands in bits 32..63.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(t, x1), 4)));
}

// Decided once: the fold kernel needs PCLMULQDQ, which mainstream x86-64 CPUs
// have had since about 2010 but the baseline ISA does not promise.
bool HasPclmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return has;
}

#endif  // __x86_64__

}  // namespace

uint32_t Crc32Extend(uint32_t crc, std::string_view data) {
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  uint32_t c = crc ^ 0xffffffffu;
#if defined(__x86_64__)
  if (n >= kFoldMin && HasPclmul()) {
    const size_t bulk = n & ~size_t{15};
    c = FoldCrc32(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return SliceBy8(c, p, n) ^ 0xffffffffu;
}

uint32_t Crc32(std::string_view data) { return Crc32Extend(0, data); }

}  // namespace wdg
