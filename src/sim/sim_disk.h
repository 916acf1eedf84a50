// SimDisk: an in-memory storage device with a latency model and injectable
// gray failures (fail-slow, partial failure via bad ranges, silent lost
// writes, bit corruption). Stands in for the production disks of the paper's
// evaluation targets — see DESIGN.md §2.
//
// Every operation passes through a named fault site:
//   disk.create, disk.write, disk.append, disk.read, disk.fsync,
//   disk.delete, disk.rename, disk.list
// so campaigns can make exactly one operation class misbehave.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/fault/fault_injector.h"

namespace wdg {

struct DiskOptions {
  DurationNs base_latency = Us(50);       // per-op seek cost
  DurationNs per_kb_latency = Us(10);     // transfer cost
  double slow_factor = 1.0;               // >1 == fail-slow device
  int64_t capacity_bytes = 1LL << 30;     // writes past this fail RESOURCE_EXHAUSTED
};

class SimDisk {
 public:
  SimDisk(Clock& clock, FaultInjector& injector, DiskOptions options = {});

  // --- file operations (all thread-safe) -------------------------------
  Status Create(const std::string& path);
  Status Write(const std::string& path, int64_t offset, std::string_view data);
  Status Append(const std::string& path, std::string_view data);
  Result<std::string> Read(const std::string& path, int64_t offset, int64_t length) const;
  Result<std::string> ReadAll(const std::string& path) const;
  Status Fsync(const std::string& path);
  Status Delete(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);
  bool Exists(const std::string& path) const;
  Result<int64_t> Size(const std::string& path) const;
  // All paths with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix) const;

  // --- partial-failure knobs -------------------------------------------
  // Reads overlapping a bad range return deterministically corrupted bytes
  // (the media went bad under the data — IRON-paper-style partial failure).
  void MarkBadRange(const std::string& path, int64_t offset, int64_t length);
  void ClearBadRanges();
  // Device-wide fail-slow multiplier (limping disk).
  void SetSlowFactor(double factor);

  // --- watchdog isolation support --------------------------------------
  // Mimic checkers redirect their writes into a private namespace so checking
  // never touches main-program data (paper §3.2 isolation / §5.1 redirection).
  static std::string ScratchPath(const std::string& checker_name, const std::string& file);
  static bool IsScratchPath(std::string_view path);
  // Drops every file under the checker's scratch namespace.
  void PurgeScratch(const std::string& checker_name);

  int64_t used_bytes() const;
  MetricsRegistry& metrics() { return metrics_; }
  FaultInjector& injector() { return injector_; }
  Clock& clock() { return clock_; }

 private:
  struct BadRange {
    int64_t offset;
    int64_t length;
  };
  struct File {
    std::string data;
    std::vector<BadRange> bad_ranges;
  };

  // One per fault site listed above, in that order; each also counts its
  // calls in "<site>.ops".
  enum Op { kCreate, kWrite, kAppend, kRead, kFsync, kDelete, kRename, kList, kNumOps };
  static constexpr std::array<std::string_view, kNumOps> kOpSites = {
      "disk.create", "disk.write",  "disk.append", "disk.read",
      "disk.fsync",  "disk.delete", "disk.rename", "disk.list"};

  // Sleeps for the modeled cost of touching `bytes` bytes.
  void ChargeLatency(int64_t bytes) const;
  // Fault gate shared by all ops; mutates payload on corruption outcomes.
  Status Gate(Op op, std::string* payload, bool* dropped) const;

  Clock& clock_;
  FaultInjector& injector_;
  DiskOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, File> files_;
  int64_t used_bytes_ = 0;
  double slow_factor_;
  mutable MetricsRegistry metrics_;
  // Looked up once: the per-op path builds no names.
  std::array<Counter*, kNumOps> op_counters_{};
  Counter* bytes_read_;
  Counter* bytes_written_;
};

}  // namespace wdg
