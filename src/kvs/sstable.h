// Immutable sorted string tables on SimDisk, with a CRC footer the partition
// manager validates — the "complex fsck-like checks" watchdogs run (§2).
#pragma once

#include <cstddef>
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

// Every reader reads the whole file once through SimDisk::ReadAll, checks the
// footer CRC over the body and walks every record: CORRUPTION if the CRC
// mismatches the data (bad media, bit rot, lost write) or any record is
// malformed.
class SsTable {
 public:
  // Writes `entries` (sorted, may contain tombstones) to `path`.
  static wdg::Status Write(wdg::SimDisk& disk, const std::string& path,
                           const std::vector<std::pair<std::string, MemEntry>>& entries);

  // Integrity only: builds nothing.
  static wdg::Status Validate(const wdg::SimDisk& disk, const std::string& path);

  // Point lookup: copies out only the matching record, if any.
  static wdg::Result<std::optional<MemEntry>> Lookup(const wdg::SimDisk& disk,
                                                     const std::string& path,
                                                     const std::string& key);
};

// A verified table held in its read buffer: the input of SsMerge. Read also
// refuses, as CORRUPTION, keys that are not strictly ascending.
class SsRun {
 public:
  static wdg::Result<SsRun> Read(const wdg::SimDisk& disk, const std::string& path);

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
