// Immutable sorted string tables on SimDisk, with a CRC footer and a per-block
// CRC map the partition manager validates — the "complex fsck-like checks"
// watchdogs run (§2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/kvs/memtable.h"
#include "src/sim/sim_disk.h"

namespace kvs {

// One record, viewed in place: the views point into a read or build buffer.
struct SsRecord {
  std::string_view key;
  bool tombstone = false;
  std::string_view value;
};

// Whole-table readers (Validate, SsRun::Read, SsBlockMap::Build) read the
// file once through SimDisk::ReadAll, check the footer CRC over the body and
// walk every record: CORRUPTION if the CRC mismatches the data (bad media, bit
// rot, lost write) or any record is malformed.
class SsTable {
 public:
  // Writes `entries` (sorted, may contain tombstones) to `path`.
  static wdg::Status Write(wdg::SimDisk& disk, const std::string& path,
                           const std::vector<std::pair<std::string, MemEntry>>& entries);

  // Integrity only: builds nothing.
  static wdg::Status Validate(const wdg::SimDisk& disk, const std::string& path);
};

// Blocks are cut at record boundaries and hold at most this many body bytes,
// unless a single record is larger.
inline constexpr size_t kSsBlockBytes = 4096;

// One record-aligned slice of a table body, with the CRC32 of its bytes.
struct SsBlock {
  std::string first_key;
  size_t offset = 0;
  size_t size = 0;
  uint32_t crc = 0;
};

// A table verified once as a whole, and the map that lets a reader then read
// and verify one block at a time: a point lookup costs one block, not the
// table. Nothing read after the build is trusted unchecked: every block read
// is CRC-checked against the map and walked again.
class SsBlockMap {
 public:
  // Reads the table through SsRun::Read's checks (footer CRC, framing,
  // strictly ascending keys), then cuts its body into blocks.
  static wdg::Result<SsBlockMap> Build(const wdg::SimDisk& disk, const std::string& path);

  // Point lookup: reads, through SimDisk::Read, the one block whose range
  // holds `key` (none when the table's key range excludes it) and copies out
  // only the matching record. CORRUPTION when that block no longer matches
  // the map.
  wdg::Result<std::optional<MemEntry>> Lookup(const wdg::SimDisk& disk,
                                              std::string_view key) const;

  // Reads blocks [first, first + count) with one SimDisk::Read and checks
  // each against its CRC in the map.
  wdg::Result<std::string> ReadBlocks(const wdg::SimDisk& disk, size_t first,
                                      size_t count) const {
    return ReadChecked(disk, first, count, false);
  }

  // ReadBlocks as an integrity check. A range that ends the table also reads
  // the footer and one byte past the file, so footer rot and a file that grew
  // or shrank since the build fail as CORRUPTION too.
  wdg::Status Check(const wdg::SimDisk& disk, size_t first, size_t count) const {
    return ReadChecked(disk, first, count, first + count == blocks_.size()).status();
  }

  // How many whole blocks from `first` fit in `budget` bytes, the footer
  // counted with the last block: at least one, while any remain.
  size_t BlocksWithin(size_t first, size_t budget) const;

  const std::string& path() const { return path_; }
  const std::vector<SsBlock>& blocks() const { return blocks_; }

 private:
  wdg::Result<std::string> ReadChecked(const wdg::SimDisk& disk, size_t first, size_t count,
                                       bool to_end) const;

  std::string path_;
  std::string last_key_;
  std::vector<SsBlock> blocks_;
  size_t size_ = 0;
  std::string footer_;
};

// A verified table held in its read buffer: the input of SsMerge. Read also
// refuses, as CORRUPTION, keys that are not strictly ascending.
class SsRun {
 public:
  static wdg::Result<SsRun> Read(const wdg::SimDisk& disk, const std::string& path);

  // The whole blocks of `map` that fit in `budget` bytes (BlocksWithin),
  // read from the start of the table and each CRC-checked against the map:
  // a bounded, still verified, prefix of the table.
  static wdg::Result<SsRun> ReadPrefix(const wdg::SimDisk& disk, const SsBlockMap& map,
                                       size_t budget);

  // Body bytes (records without the footer): an upper bound on what a merge
  // of this run writes.
  size_t body_size() const { return body_size_; }

 private:
  friend class SsMerge;
  SsRun(std::string data, size_t body_size) : data_(std::move(data)), body_size_(body_size) {}

  // Offsets, not views: a moved std::string may move its bytes (SSO).
  std::string data_;
  size_t body_size_;
};

// Streaming newest-wins merge over runs ordered oldest first. Next() yields
// each distinct key once, ascending, with the record of the newest run that
// holds it, tombstones included. Records view the runs' buffers, which must
// outlive the merge; nothing is copied and nothing is allocated per record.
class SsMerge {
 public:
  explicit SsMerge(std::span<const SsRun> runs);

  bool Next(SsRecord& out);

 private:
  struct Cursor {
    std::string_view body;
    size_t at = 0;  // offset of the record after `head`
    SsRecord head;
    bool done = false;
  };
  static void Advance(Cursor& cursor);

  std::vector<Cursor> cursors_;
};

// Serializes records in the order given (callers keep keys strictly
// ascending) and writes them as one table.
class SsTableBuilder {
 public:
  void Reserve(size_t body_bytes);
  void Add(const SsRecord& record);
  // Appends the footer, then creates, writes and fsyncs `path`. Call once.
  wdg::Status Write(wdg::SimDisk& disk, const std::string& path);

 private:
  std::string data_;
};

}  // namespace kvs
