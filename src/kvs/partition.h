// Partition manager: tracks SSTable key ranges and validates each table
// against the block map the index verified it into — the paper's motivating
// safety check ("a checker that computes and validates the checksum of each
// partition", §3.3) plus the ascending-key-range invariant used in the
// correctness-checking discussion.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/kvs/index.h"
#include "src/kvs/sstable.h"
#include "src/sim/sim_disk.h"

namespace kvs {

struct PartitionInfo {
  std::string path;
  std::string min_key;
  std::string max_key;
  // The table as the index verified it: its block map, size and footer.
  Index::TableRef table;
  size_t next_block = 0;  // where this partition's next ValidateWindow starts
};

class PartitionManager {
 public:
  explicit PartitionManager(wdg::SimDisk& disk) : disk_(disk) {}

  // Registered by the flusher/compaction with the table the index just
  // verified; reads nothing. A table whose verification failed is verified
  // again by its next validation, as Index::Verified does for reads.
  void Register(Index::TableRef table, std::string min_key, std::string max_key);
  void Unregister(const std::string& path);

  std::vector<PartitionInfo> Partitions() const;
  bool Registered(const std::string& path) const;

  // Re-reads the whole partition with one read and checks every block CRC,
  // the footer and the size. CORRUPTION on mismatch — catches bad media, bit
  // rot, and lost writes under the data.
  wdg::Status Validate(const std::string& path) { return Check(path, true); }

  // The bounded form of Validate: checks the whole blocks that fit in the
  // next kWindowBytes of `path` (the footer counts in the window that ends
  // the file), or, with no path, of the next partition in turn, so
  // successive calls sweep every block of every partition.
  static constexpr size_t kWindowBytes = 2 * kSsBlockBytes;
  wdg::Status ValidateWindow(std::string_view path = {}) { return Check(path, false); }

  // The §3.3 correctness property: key ranges sorted in ascending order.
  wdg::Status CheckRangesSorted() const;

 private:
  // Validate when `whole`, else ValidateWindow.
  wdg::Status Check(std::string_view path, bool whole);

  wdg::SimDisk& disk_;
  mutable std::mutex mu_;
  std::vector<PartitionInfo> partitions_;
  size_t window_cursor_ = 0;  // the partition the next path-less window checks
};

}  // namespace kvs
