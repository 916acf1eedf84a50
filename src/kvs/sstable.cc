#include "src/kvs/sstable.h"

#include <algorithm>
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

// Walks the records of `body` (a whole table body, or a record-aligned slice
// of one) and calls `visit(record, offset, end)` for every record, with the
// record's byte range in `body`. Every record is checked even after the
// caller has what it needs, so a malformed body fails as a whole.
template <typename Visit>
wdg::Status WalkRecords(std::string_view body, const std::string& path, Visit&& visit) {
  size_t at = 0;
  while (at < body.size()) {
    if (body.size() - at < kHeaderSize) {
      return wdg::CorruptionError("sstable record header truncated: " + path);
    }
    const size_t key_len = GetU32(body, at);
    const size_t value_len = GetU32(body, at + 4);
    const char tag = body[at + 8];
    const size_t key_at = at + kHeaderSize;
    if (tag != 'T' && tag != 'V') {
      return wdg::CorruptionError("sstable record malformed: " + path);
    }
    if (key_len > body.size() - key_at || value_len > body.size() - key_at - key_len) {
      return wdg::CorruptionError("sstable record overruns body: " + path);
    }
    const size_t end = key_at + key_len + value_len;
    const SsRecord record{body.substr(key_at, key_len), tag == 'T',
                          body.substr(key_at + key_len, value_len)};
    visit(record, at, end);
    at = end;
  }
  return wdg::Status::Ok();
}

// Reads the whole table, checks the footer CRC over the body, and walks
// every record; returns the read buffer, which the record views point into.
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
  WDG_RETURN_IF_ERROR(WalkRecords(body, path, visit));
  return data;
}

// Strictly ascending keys: the merge and the block map rely on the order, so
// a table that breaks it is as damaged as one whose CRC fails.
class KeyOrder {
 public:
  void See(std::string_view key) {
    ordered_ = ordered_ && (first_ || previous_ < key);
    first_ = false;
    previous_ = key;
  }
  wdg::Status status(const std::string& path) const {
    return ordered_ ? wdg::Status::Ok()
                    : wdg::CorruptionError("sstable keys out of order: " + path);
  }

 private:
  bool ordered_ = true;
  bool first_ = true;
  std::string_view previous_;
};
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
  return ReadTable(disk, path, [](const SsRecord&, size_t, size_t) {}).status();
}

wdg::Result<SsBlockMap> SsBlockMap::Build(const wdg::SimDisk& disk, const std::string& path) {
  SsBlockMap map;
  map.path_ = path;
  KeyOrder order;
  size_t last_key_at = 0;
  size_t last_key_len = 0;
  WDG_ASSIGN_OR_RETURN(const std::string data,
                       ReadTable(disk, path, [&](const SsRecord& record, size_t at, size_t end) {
                         order.See(record.key);
                         if (map.blocks_.empty() ||
                             map.blocks_.back().size + (end - at) > kSsBlockBytes) {
                           map.blocks_.push_back(SsBlock{std::string(record.key), at, 0, 0});
                         }
                         map.blocks_.back().size += end - at;
                         last_key_at = at + kHeaderSize;
                         last_key_len = record.key.size();
                       }));
  WDG_RETURN_IF_ERROR(order.status(path));
  for (SsBlock& block : map.blocks_) {
    block.crc = wdg::Crc32(std::string_view(data).substr(block.offset, block.size));
  }
  map.last_key_.assign(data, last_key_at, last_key_len);
  map.size_ = data.size();
  map.footer_.assign(data, data.size() - kFooterSize);
  return map;
}

wdg::Result<std::string> SsBlockMap::ReadChecked(const wdg::SimDisk& disk, size_t first,
                                                 size_t count, bool to_end) const {
  if (count == 0 && !to_end) {
    return std::string();
  }
  const size_t body_size = size_ - footer_.size();
  const size_t offset = first < blocks_.size() ? blocks_[first].offset : body_size;
  const size_t end =
      to_end ? size_ : blocks_[first + count - 1].offset + blocks_[first + count - 1].size;
  // Reading to the end asks for one byte more: it comes back only if the
  // file grew.
  auto read = disk.Read(path_, static_cast<int64_t>(offset),
                        static_cast<int64_t>(end - offset + (to_end ? 1 : 0)));
  if (read.status().code() == wdg::StatusCode::kInvalidArgument) {
    // Read refuses an offset past the end: the file shrank under the map.
    return wdg::CorruptionError("sstable truncated: " + path_);
  }
  WDG_RETURN_IF_ERROR(read.status());
  const std::string_view bytes(*read);
  if (bytes.size() != end - offset) {
    return wdg::CorruptionError("sstable size changed: " + path_);
  }
  bool intact = !to_end || bytes.substr(body_size - offset) == footer_;
  for (size_t i = first; intact && i < first + count; ++i) {
    intact = wdg::Crc32(bytes.substr(blocks_[i].offset - offset, blocks_[i].size)) ==
             blocks_[i].crc;
  }
  if (!intact) {
    return wdg::CorruptionError("sstable block checksum mismatch: " + path_);
  }
  return std::move(*read);
}

size_t SsBlockMap::BlocksWithin(size_t first, size_t budget) const {
  const auto end_of = [&](size_t i) {
    return i + 1 < blocks_.size() ? blocks_[i + 1].offset : size_;
  };
  size_t count = first < blocks_.size() ? 1 : 0;
  while (first + count < blocks_.size() &&
         end_of(first + count) - blocks_[first].offset <= budget) {
    ++count;
  }
  return count;
}

wdg::Result<std::optional<MemEntry>> SsBlockMap::Lookup(const wdg::SimDisk& disk,
                                                        std::string_view key) const {
  // The block that can hold `key` is the last one whose first key is <= key.
  const auto after = std::upper_bound(
      blocks_.begin(), blocks_.end(), key,
      [](std::string_view k, const SsBlock& block) { return k < block.first_key; });
  if (after == blocks_.begin() || key > last_key_) {
    return std::optional<MemEntry>{};
  }
  WDG_ASSIGN_OR_RETURN(const std::string block,
                       ReadBlocks(disk, static_cast<size_t>(after - blocks_.begin()) - 1, 1));
  std::optional<MemEntry> found;
  WDG_RETURN_IF_ERROR(WalkRecords(block, path_, [&](const SsRecord& record, size_t, size_t) {
    if (record.key == key) {
      found = MemEntry{std::string(record.value), record.tombstone};
    }
  }));
  return found;
}

wdg::Result<SsRun> SsRun::Read(const wdg::SimDisk& disk, const std::string& path) {
  KeyOrder order;
  WDG_ASSIGN_OR_RETURN(std::string data,
                       ReadTable(disk, path, [&](const SsRecord& record, size_t, size_t) {
                         order.See(record.key);
                       }));
  WDG_RETURN_IF_ERROR(order.status(path));
  const size_t body_size = data.size() - kFooterSize;
  return SsRun(std::move(data), body_size);
}

wdg::Result<SsRun> SsRun::ReadPrefix(const wdg::SimDisk& disk, const SsBlockMap& map,
                                     size_t budget) {
  WDG_ASSIGN_OR_RETURN(std::string data, map.ReadBlocks(disk, 0, map.BlocksWithin(0, budget)));
  // The CRCs matched the map, but the merge cursors trust the framing and
  // the order, so the prefix is walked as a table would be.
  KeyOrder order;
  WDG_RETURN_IF_ERROR(WalkRecords(data, map.path(), [&](const SsRecord& record, size_t, size_t) {
    order.See(record.key);
  }));
  WDG_RETURN_IF_ERROR(order.status(map.path()));
  const size_t body_size = data.size();
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
  // SsRun's readers checked the framing, so the lengths stay inside the body.
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
