// Immutable sorted string tables on SimDisk, with a CRC footer the partition
// manager validates — the "complex fsck-like checks" watchdogs run (§2).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/kvs/memtable.h"
#include "src/sim/sim_disk.h"

namespace kvs {

class SsTable {
 public:
  // Writes `entries` (sorted, may contain tombstones) to `path`.
  static wdg::Status Write(wdg::SimDisk& disk, const std::string& path,
                           const std::vector<std::pair<std::string, MemEntry>>& entries);

  // Every reader below reads the whole file, checks the footer CRC over the
  // body and walks every record: CORRUPTION if the CRC mismatches the data
  // (bad media, bit rot, lost write) or any record is malformed.

  // Returns all entries.
  static wdg::Result<std::map<std::string, MemEntry>> Load(const wdg::SimDisk& disk,
                                                           const std::string& path);

  // Integrity only: builds nothing.
  static wdg::Status Validate(const wdg::SimDisk& disk, const std::string& path);

  // Point lookup: copies out only the matching record, if any.
  static wdg::Result<std::optional<MemEntry>> Lookup(const wdg::SimDisk& disk,
                                                     const std::string& path,
                                                     const std::string& key);
};

}  // namespace kvs
