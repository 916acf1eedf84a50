// Disk flusher: drains the memtable into a new SSTable when it grows past a
// threshold. A classic silent-background-failure site: if flushing limps or
// wedges, clients still see fast in-memory writes for a long time.
//
// Fires hook site "FlushMemtable:1" (matching kvs::DescribeIr) right before
// the flush's first vulnerable op, capturing {flush_file, entry_count}.
#pragma once

#include <atomic>
#include <functional>
#include <string>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/threading.h"
#include "src/kvs/index.h"
#include "src/kvs/memtable.h"
#include "src/kvs/partition.h"
#include "src/sim/sim_disk.h"
#include "src/watchdog/context.h"

namespace kvs {

struct FlusherOptions {
  int64_t flush_threshold_bytes = 2048;
  wdg::DurationNs poll_interval = wdg::Ms(20);
  std::string table_dir = "/kvs/sst";
};

class Flusher {
 public:
  Flusher(wdg::Clock& clock, wdg::SimDisk& disk, Memtable& memtable, Index& index,
          PartitionManager& partitions, wdg::HookSet& hooks, wdg::MetricsRegistry& metrics,
          FlusherOptions options = {});
  ~Flusher() { Stop(); }

  void Start();
  void Stop();

  // One flush cycle (also used directly by tests). No-op when the memtable is
  // below threshold unless `force`.
  wdg::Status FlushOnce(bool force = false);

  // Invoked after each successful flush (the node truncates its WAL here).
  void set_on_flushed(std::function<void()> fn) { on_flushed_ = std::move(fn); }

  int64_t flush_count() const { return flush_count_.load(); }

 private:
  void Loop();

  wdg::Clock& clock_;
  wdg::SimDisk& disk_;
  Memtable& memtable_;
  Index& index_;
  PartitionManager& partitions_;
  wdg::HookSet& hooks_;
  wdg::MetricsRegistry& metrics_;
  wdg::Gauge* last_tick_ns_;  // resolved once: Loop stamps it every poll
  FlusherOptions options_;
  std::function<void()> on_flushed_;

  std::atomic<int64_t> flush_count_{0};
  std::atomic<int64_t> table_seq_{0};
  wdg::StopFlag stop_;
  wdg::JoiningThread thread_;
  bool started_ = false;
};

}  // namespace kvs
