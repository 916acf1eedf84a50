// Partition manager: tracks SSTable key ranges and their expected checksums,
// and validates them — the paper's motivating safety check ("a checker that
// computes and validates the checksum of each partition", §3.3) plus the
// ascending-key-range invariant used in the correctness-checking discussion.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/sim_disk.h"

namespace kvs {

struct PartitionInfo {
  std::string path;
  std::string min_key;
  std::string max_key;
  uint32_t expected_crc = 0;  // CRC of the file body at registration time
};

class PartitionManager {
 public:
  explicit PartitionManager(wdg::SimDisk& disk) : disk_(disk) {}

  // Registered by the flusher/compaction after a successful table write.
  wdg::Status Register(const std::string& path, const std::string& min_key,
                       const std::string& max_key);
  void Unregister(const std::string& path);

  std::vector<PartitionInfo> Partitions() const;

  // Re-reads the partition and compares checksums. CORRUPTION on mismatch —
  // catches bad media, bit rot, and lost writes under the data.
  wdg::Status Validate(const std::string& path) const;
  wdg::Status ValidateAll() const;

  // The §3.3 correctness property: key ranges sorted in ascending order.
  wdg::Status CheckRangesSorted() const;

 private:
  wdg::SimDisk& disk_;
  mutable std::mutex mu_;
  std::vector<PartitionInfo> partitions_;
};

}  // namespace kvs
