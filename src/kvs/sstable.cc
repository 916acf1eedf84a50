#include "src/kvs/sstable.h"

#include <array>
#include <string_view>

#include "src/common/checksum.h"
#include "src/kvs/coding.h"

namespace kvs {

namespace {
// Body: records back to back, each [u32 key_len][u32 value_len][tag][key][value]
// with tag 'V' (value) or 'T' (tombstone), then an 8-hex-char footer holding
// the CRC32 of the body. Lengths frame every record, so any byte round-trips.
constexpr size_t kHeaderSize = 9;
constexpr size_t kFooterSize = 8;

// The footer text for `crc`: lowercase hex, byte-compared on read (parsing it
// instead would accept a case flip in the footer).
std::array<char, kFooterSize> FooterFor(uint32_t crc) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::array<char, kFooterSize> out{};
  for (size_t i = 0; i < kFooterSize; ++i) {
    out[i] = kHex[(crc >> (4 * (kFooterSize - 1 - i))) & 0xfu];
  }
  return out;
}

std::string Serialize(const std::vector<std::pair<std::string, MemEntry>>& entries) {
  size_t size = 0;
  for (const auto& [key, entry] : entries) {
    size += kHeaderSize + key.size() + entry.value.size();
  }
  std::string body;
  body.reserve(size + kFooterSize);
  for (const auto& [key, entry] : entries) {
    PutU32(body, static_cast<uint32_t>(key.size()));
    PutU32(body, static_cast<uint32_t>(entry.value.size()));
    body += entry.tombstone ? 'T' : 'V';
    body += key;
    body += entry.value;
  }
  return body;
}

// Reads the whole table, checks the footer CRC over the body, and calls
// `visit(key, tombstone, value)` for every record. The views point into the
// read buffer and die with this call. Every record is checked even after the
// caller has what it needs, so a malformed table fails as a whole.
template <typename Visit>
wdg::Status ReadTable(const wdg::SimDisk& disk, const std::string& path, Visit&& visit) {
  WDG_ASSIGN_OR_RETURN(const std::string data, disk.ReadAll(path));
  if (data.size() < kFooterSize) {
    return wdg::CorruptionError("sstable too short for footer: " + path);
  }
  const std::string_view body(data.data(), data.size() - kFooterSize);
  const auto expected = FooterFor(wdg::Crc32(body));
  if (std::string_view(expected.data(), expected.size()) !=
      std::string_view(data).substr(body.size())) {
    return wdg::CorruptionError("sstable checksum mismatch: " + path);
  }
  size_t at = 0;
  while (at < body.size()) {
    if (body.size() - at < kHeaderSize) {
      return wdg::CorruptionError("sstable record header truncated: " + path);
    }
    const size_t key_len = GetU32(body, at);
    const size_t value_len = GetU32(body, at + 4);
    const char tag = body[at + 8];
    at += kHeaderSize;
    if (tag != 'T' && tag != 'V') {
      return wdg::CorruptionError("sstable record malformed: " + path);
    }
    if (key_len > body.size() - at || value_len > body.size() - at - key_len) {
      return wdg::CorruptionError("sstable record overruns body: " + path);
    }
    visit(body.substr(at, key_len), tag == 'T', body.substr(at + key_len, value_len));
    at += key_len + value_len;
  }
  return wdg::Status::Ok();
}
}  // namespace

wdg::Status SsTable::Write(wdg::SimDisk& disk, const std::string& path,
                           const std::vector<std::pair<std::string, MemEntry>>& entries) {
  std::string data = Serialize(entries);
  const auto footer = FooterFor(wdg::Crc32(data));
  data.append(footer.data(), footer.size());
  WDG_RETURN_IF_ERROR(disk.Create(path));
  WDG_RETURN_IF_ERROR(disk.Write(path, 0, data));
  return disk.Fsync(path);
}

wdg::Result<std::map<std::string, MemEntry>> SsTable::Load(const wdg::SimDisk& disk,
                                                           const std::string& path) {
  std::map<std::string, MemEntry> entries;
  WDG_RETURN_IF_ERROR(
      ReadTable(disk, path, [&](std::string_view key, bool tombstone, std::string_view value) {
        // Records are written in key order, so the end is the right hint.
        entries.insert_or_assign(entries.end(), std::string(key),
                                 MemEntry{std::string(value), tombstone});
      }));
  return entries;
}

wdg::Status SsTable::Validate(const wdg::SimDisk& disk, const std::string& path) {
  return ReadTable(disk, path, [](std::string_view, bool, std::string_view) {});
}

wdg::Result<std::optional<MemEntry>> SsTable::Lookup(const wdg::SimDisk& disk,
                                                     const std::string& path,
                                                     const std::string& key) {
  std::optional<MemEntry> found;
  WDG_RETURN_IF_ERROR(
      ReadTable(disk, path, [&](std::string_view record_key, bool tombstone,
                                std::string_view value) {
        if (record_key == key) {
          found = MemEntry{std::string(value), tombstone};
        }
      }));
  return found;
}

}  // namespace kvs
