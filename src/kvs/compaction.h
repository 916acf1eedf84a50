// Compaction manager: merges SSTables when too many accumulate. The paper's
// canonical silent failure ("a Cassandra background task of SSTable
// compaction is stuck", §1) lives here — the "compact.merge" fault site wedges
// exactly this task while everything client-visible keeps working.
//
// Fires hook site "CompactTables:1" capturing {table_count}.
#pragma once

#include <atomic>
#include <string>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/threading.h"
#include "src/kvs/index.h"
#include "src/kvs/partition.h"
#include "src/sim/sim_disk.h"
#include "src/watchdog/context.h"

namespace kvs {

struct CompactionOptions {
  size_t max_tables = 4;  // compact when the index holds more than this
  wdg::DurationNs poll_interval = wdg::Ms(40);
  std::string table_dir = "/kvs/sst";
};

class CompactionManager {
 public:
  CompactionManager(wdg::Clock& clock, wdg::SimDisk& disk, Index& index,
                    PartitionManager& partitions, wdg::HookSet& hooks,
                    wdg::MetricsRegistry& metrics, CompactionOptions options = {});
  ~CompactionManager() { Stop(); }

  void Start();
  void Stop();

  // One compaction cycle; merges everything into a single table. No-op when
  // at or below max_tables unless `force`.
  wdg::Status CompactOnce(bool force = false);

  // The fate-sharing probe used by the mimic checker: runs the same
  // "compact.merge" site and the same merge over a fixed-size, block-verified
  // prefix of the two oldest tables, without touching the index.
  wdg::Status MergeProbe(const std::string& scratch_checker_name) const;

  int64_t compaction_count() const { return compaction_count_.load(); }

 private:
  void Loop();

  wdg::Clock& clock_;
  wdg::SimDisk& disk_;
  Index& index_;
  PartitionManager& partitions_;
  wdg::HookSet& hooks_;
  wdg::MetricsRegistry& metrics_;
  wdg::Gauge* last_tick_ns_;  // resolved once: Loop stamps it every poll
  CompactionOptions options_;

  std::atomic<int64_t> compaction_count_{0};
  std::atomic<int64_t> merged_seq_{0};
  wdg::StopFlag stop_;
  wdg::JoiningThread thread_;
  bool started_ = false;
};

}  // namespace kvs
