// Indexer: resolves reads across the memtable and registered SSTables
// (newest first). Each table is read and verified as a whole once, when it is
// registered, and keeps the block map that verification builds; a Get then
// reads and CRC-checks one block of each table whose key range holds the key.
// Lookups pass through the "index.lookup" fault site so campaigns can wedge
// exactly the read path (e.g. an infinite-loop bug).
#pragma once

#include <memory>
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
  // A registered table and the outcome of its whole-table verification: the
  // block map, or the error every read that reaches the table returns.
  struct Table {
    std::string path;
    wdg::Result<SsBlockMap> map;
  };
  using TableRef = std::shared_ptr<const Table>;

  Index(wdg::SimDisk& disk, Memtable& memtable) : disk_(disk), memtable_(memtable) {}

  // Reads `path` whole and verifies it: the table with its block map, or with
  // the error verification met.
  static TableRef Verify(const wdg::SimDisk& disk, const std::string& path);

  // Newest table last in registration order; lookups scan newest-first.
  // Both return the new table as verified, so the caller can register it as
  // a partition without reading it again.
  TableRef AddTable(const std::string& path);
  // Compaction: atomically swap `old_paths` for `merged_path`.
  TableRef ReplaceTables(const std::vector<std::string>& old_paths,
                         const std::string& merged_path);
  std::vector<std::string> Tables() const;
  // The registered tables, oldest first.
  std::vector<TableRef> Snapshot() const;

  // The block map of `table`. A table whose verification failed is verified
  // again, as a whole, so a transient read fault does not fail its reads for
  // good; on success `table` and the index's own entry take the new map.
  wdg::Result<const SsBlockMap*> Verified(TableRef& table) const;

  // nullopt == key absent (or deleted).
  wdg::Result<std::optional<std::string>> Get(const std::string& key) const;

 private:
  wdg::SimDisk& disk_;
  Memtable& memtable_;
  mutable std::mutex mu_;
  // Mutable for Verified, which swaps a re-verified entry in place; the set
  // of tables only changes through AddTable and ReplaceTables.
  mutable std::vector<TableRef> tables_;
};

}  // namespace kvs
