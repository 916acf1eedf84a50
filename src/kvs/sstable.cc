#include "src/kvs/sstable.h"

#include <array>

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

// Reads the whole table, checks the footer CRC over the body, and calls
// `visit(record)` for every record; returns the read buffer, which the record
// views point into. Every record is checked even after the caller has what it
// needs, so a malformed table fails as a whole.
template <typename Visit>
wdg::Result<std::string> ReadTable(const wdg::SimDisk& disk, const std::string& path,
                                   Visit&& visit) {
  WDG_ASSIGN_OR_RETURN(std::string data, disk.ReadAll(path));
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
    visit(SsRecord{body.substr(at, key_len), tag == 'T', body.substr(at + key_len, value_len)});
    at += key_len + value_len;
  }
  return data;
}
}  // namespace

wdg::Status SsTable::Write(wdg::SimDisk& disk, const std::string& path,
                           const std::vector<std::pair<std::string, MemEntry>>& entries) {
  size_t size = 0;
  for (const auto& [key, entry] : entries) {
    size += kHeaderSize + key.size() + entry.value.size();
  }
  SsTableBuilder builder;
  builder.Reserve(size);
  for (const auto& [key, entry] : entries) {
    builder.Add({key, entry.tombstone, entry.value});
  }
  return builder.Write(disk, path);
}

wdg::Status SsTable::Validate(const wdg::SimDisk& disk, const std::string& path) {
  return ReadTable(disk, path, [](const SsRecord&) {}).status();
}

wdg::Result<std::optional<MemEntry>> SsTable::Lookup(const wdg::SimDisk& disk,
                                                     const std::string& path,
                                                     const std::string& key) {
  std::optional<MemEntry> found;
  WDG_RETURN_IF_ERROR(ReadTable(disk, path, [&](const SsRecord& record) {
                        if (record.key == key) {
                          found = MemEntry{std::string(record.value), record.tombstone};
                        }
                      }).status());
  return found;
}

wdg::Result<SsRun> SsRun::Read(const wdg::SimDisk& disk, const std::string& path) {
  // The merge relies on the order, so a run that breaks it is as damaged as
  // one whose CRC fails.
  bool ordered = true;
  bool first = true;
  std::string_view previous_key;
  WDG_ASSIGN_OR_RETURN(std::string data, ReadTable(disk, path, [&](const SsRecord& record) {
                         ordered = ordered && (first || previous_key < record.key);
                         first = false;
                         previous_key = record.key;
                       }));
  if (!ordered) {
    return wdg::CorruptionError("sstable keys out of order: " + path);
  }
  const size_t body_size = data.size() - kFooterSize;
  return SsRun(std::move(data), body_size);
}

SsMerge::SsMerge(std::span<const SsRun> runs) {
  cursors_.reserve(runs.size());
  for (const SsRun& run : runs) {
    Cursor& cursor = cursors_.emplace_back();
    cursor.body = std::string_view(run.data_.data(), run.body_size_);
    Advance(cursor);
  }
}

void SsMerge::Advance(Cursor& cursor) {
  cursor.done = cursor.at == cursor.body.size();
  if (cursor.done) {
    return;
  }
  // SsRun::Read checked the framing, so the lengths stay inside the body.
  const std::string_view body = cursor.body;
  const size_t key_len = GetU32(body, cursor.at);
  const size_t value_len = GetU32(body, cursor.at + 4);
  const size_t key_at = cursor.at + kHeaderSize;
  cursor.head = SsRecord{body.substr(key_at, key_len), body[cursor.at + 8] == 'T',
                         body.substr(key_at + key_len, value_len)};
  cursor.at = key_at + key_len + value_len;
}

bool SsMerge::Next(SsRecord& out) {
  // The smallest head key wins; on a tie the newest run (the later cursor)
  // holds the live record, and every run holding the key moves past it.
  const Cursor* winner = nullptr;
  for (const Cursor& cursor : cursors_) {
    if (!cursor.done && (winner == nullptr || cursor.head.key <= winner->head.key)) {
      winner = &cursor;
    }
  }
  if (winner == nullptr) {
    return false;
  }
  out = winner->head;
  for (Cursor& cursor : cursors_) {
    if (!cursor.done && cursor.head.key == out.key) {
      Advance(cursor);
    }
  }
  return true;
}

void SsTableBuilder::Reserve(size_t body_bytes) { data_.reserve(body_bytes + kFooterSize); }

void SsTableBuilder::Add(const SsRecord& record) {
  PutU32(data_, static_cast<uint32_t>(record.key.size()));
  PutU32(data_, static_cast<uint32_t>(record.value.size()));
  data_ += record.tombstone ? 'T' : 'V';
  data_ += record.key;
  data_ += record.value;
}

wdg::Status SsTableBuilder::Write(wdg::SimDisk& disk, const std::string& path) {
  const auto footer = FooterFor(wdg::Crc32(data_));
  data_.append(footer.data(), footer.size());
  WDG_RETURN_IF_ERROR(disk.Create(path));
  WDG_RETURN_IF_ERROR(disk.Write(path, 0, data_));
  return disk.Fsync(path);
}

}  // namespace kvs
