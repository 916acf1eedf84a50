// Little-endian u32 fields for the kvs on-disk formats (WAL frames, SSTable
// records). Callers bounds-check before GetU32.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace kvs {

inline void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline uint32_t GetU32(std::string_view data, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data[at + i])) << (8 * i);
  }
  return v;
}

}  // namespace kvs
