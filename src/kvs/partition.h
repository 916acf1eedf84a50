// Partition manager: tracks SSTable key ranges and their expected checksums,
// and validates them — the paper's motivating safety check ("a checker that
// computes and validates the checksum of each partition", §3.3) plus the
// ascending-key-range invariant used in the correctness-checking discussion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/sim/sim_disk.h"

namespace kvs {

// Checksums cover the file in stripes of this many bytes (the last may be
// shorter), so a check can verify any stripe on its own.
inline constexpr size_t kPartitionStripeBytes = 4096;

struct PartitionInfo {
  std::string path;
  std::string min_key;
  std::string max_key;
  // The file at registration time: its size and the CRC32 of each stripe.
  size_t size = 0;
  std::vector<uint32_t> stripe_crcs;
  size_t next_stripe = 0;  // where this partition's next ValidateWindow starts
};

class PartitionManager {
 public:
  explicit PartitionManager(wdg::SimDisk& disk) : disk_(disk) {}

  // Registered by the flusher/compaction after a successful table write.
  wdg::Status Register(const std::string& path, const std::string& min_key,
                       const std::string& max_key);
  void Unregister(const std::string& path);

  std::vector<PartitionInfo> Partitions() const;
  bool Registered(const std::string& path) const;

  // Re-reads the whole partition and compares every stripe checksum.
  // CORRUPTION on mismatch — catches bad media, bit rot, and lost writes
  // under the data.
  wdg::Status Validate(const std::string& path) const;

  // The bounded form of Validate: checks the next kWindowBytes of `path`'s
  // stripes, or, with no path, of the next partition in turn, so successive
  // calls sweep every stripe of every partition.
  static constexpr size_t kWindowBytes = 2 * kPartitionStripeBytes;
  wdg::Status ValidateWindow(std::string_view path = {});

  // The §3.3 correctness property: key ranges sorted in ascending order.
  wdg::Status CheckRangesSorted() const;

 private:
  wdg::SimDisk& disk_;
  mutable std::mutex mu_;
  std::vector<PartitionInfo> partitions_;
  size_t window_cursor_ = 0;  // the partition the next path-less window checks
};

}  // namespace kvs
