// CRC32 (IEEE 802.3 polynomial, slicing-by-8). Used for partition/sstable
// integrity checks — the "fsck-like" safety checks mimic checkers run.
#pragma once

#include <cstdint>
#include <string_view>

namespace wdg {

uint32_t Crc32(std::string_view data);
uint32_t Crc32Extend(uint32_t crc, std::string_view data);

}  // namespace wdg
