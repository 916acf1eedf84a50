// Indexer: resolves reads across the memtable and registered SSTables
// (newest first). Lookups pass through the "index.lookup" fault site so
// campaigns can wedge exactly the read path (e.g. an infinite-loop bug).
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/kvs/memtable.h"
#include "src/kvs/sstable.h"
#include "src/sim/sim_disk.h"

namespace kvs {

class Index {
 public:
  Index(wdg::SimDisk& disk, Memtable& memtable) : disk_(disk), memtable_(memtable) {}

  // Newest table last in registration order; lookups scan newest-first.
  void AddTable(const std::string& path);
  // Compaction: atomically swap `old_paths` for `merged_path`.
  void ReplaceTables(const std::vector<std::string>& old_paths, const std::string& merged_path);
  std::vector<std::string> Tables() const;

  // nullopt == key absent (or deleted).
  wdg::Result<std::optional<std::string>> Get(const std::string& key) const;

 private:
  wdg::SimDisk& disk_;
  Memtable& memtable_;
  mutable std::mutex mu_;
  std::vector<std::string> tables_;
};

}  // namespace kvs
