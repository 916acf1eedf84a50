// CRC32 (IEEE 802.3 polynomial, bit-reflected, as zlib computes it). Used for
// partition/sstable integrity checks — the "fsck-like" safety checks mimic
// checkers run — and for WAL and block-store framing.
//
// Two kernels, one result. On x86-64 CPUs with PCLMULQDQ, an input of 64
// bytes or more has its 16-byte-multiple bulk folded by carry-less multiplies
// (four 128-bit lanes per 64-byte step, folded down to 64 bits, then a Barrett
// reduction to 32; Gopal et al., Intel 2009). Slicing-by-8 table lookups do
// the remaining tail of under 16 bytes, every input under 64 bytes, and all
// the work on other CPUs and other architectures. Which one runs is decided
// once per process from the CPU's feature bits; values are byte-for-byte the
// same either way.
#pragma once

#include <cstdint>
#include <string_view>

namespace wdg {

uint32_t Crc32(std::string_view data);
// The CRC of the concatenation, given `crc` = Crc32 of what came before.
uint32_t Crc32Extend(uint32_t crc, std::string_view data);

}  // namespace wdg
