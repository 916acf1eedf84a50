// KvsNode: the full kvs process of Figure 1 — request listener, executor,
// WAL, memtable+indexer, disk flusher, compaction manager, replication
// engine, partition manager — plus the heartbeat thread that keeps beating
// through partial failures (which is precisely why heartbeat detectors miss
// them).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/threading.h"
#include "src/kvs/compaction.h"
#include "src/kvs/flusher.h"
#include "src/kvs/index.h"
#include "src/kvs/memtable.h"
#include "src/kvs/partition.h"
#include "src/kvs/replication.h"
#include "src/kvs/types.h"
#include "src/kvs/wal.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_net.h"
#include "src/watchdog/context.h"

namespace kvs {

struct KvsOptions {
  wdg::NodeId node_id = "kvs1";
  // In-memory mode: no WAL, no flushes — the paper's example of a config
  // under which a disk-flusher checker must stay dormant (context not ready).
  bool in_memory = false;
  std::string data_dir = "/kvs";
  int64_t flush_threshold_bytes = 2048;
  wdg::DurationNs flush_poll = wdg::Ms(20);
  size_t compaction_max_tables = 4;
  wdg::DurationNs compaction_poll = wdg::Ms(40);
  std::vector<wdg::NodeId> followers;  // non-empty == this node is a leader
  wdg::DurationNs replication_ack_timeout = wdg::Ms(200);
  wdg::NodeId heartbeat_target;  // empty == heartbeats off
  wdg::DurationNs heartbeat_interval = wdg::Ms(25);
  wdg::DurationNs maintenance_poll = wdg::Ms(50);
};

class KvsNode {
 public:
  KvsNode(wdg::Clock& clock, wdg::SimDisk& disk, wdg::SimNet& net, KvsOptions options = {});
  ~KvsNode();

  KvsNode(const KvsNode&) = delete;
  KvsNode& operator=(const KvsNode&) = delete;

  // Recovers from the WAL (if any) and starts all component threads.
  wdg::Status Start();
  void Stop();

  // Applies a request exactly as the listener does (minus the network).
  // `from_replication` suppresses WAL + re-replication on followers.
  Response Apply(const Request& request, bool from_replication = false);

  // --- component access (checkers, op executors, tests) ------------------
  Memtable& memtable() { return memtable_; }
  Index& index() { return index_; }
  PartitionManager& partitions() { return partitions_; }
  Flusher& flusher() { return *flusher_; }
  CompactionManager& compaction() { return *compaction_; }
  ReplicationEngine& replication() { return *replication_; }
  Wal& wal() { return *wal_; }
  wdg::HookSet& hooks() { return hooks_; }
  wdg::MetricsRegistry& metrics() { return metrics_; }
  wdg::SimDisk& disk() { return disk_; }
  wdg::SimNet& net() { return net_; }
  wdg::Clock& clock() { return clock_; }
  const KvsOptions& options() const { return options_; }

  std::string wal_path() const;
  std::string table_dir() const;
  bool running() const { return running_.load(); }

 private:
  void ListenerLoop();
  void HeartbeatLoop();
  void MaintenanceLoop();
  void ApplyReplicatedBatch(const std::string& payload);

  wdg::Clock& clock_;
  wdg::SimDisk& disk_;
  wdg::SimNet& net_;
  KvsOptions options_;

  Memtable memtable_;
  Index index_;
  PartitionManager partitions_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<Flusher> flusher_;
  std::unique_ptr<CompactionManager> compaction_;
  std::unique_ptr<ReplicationEngine> replication_;
  wdg::HookSet hooks_;
  wdg::MetricsRegistry metrics_;
  // Registry entries and hook sites the request path and the node's loops
  // use, resolved once at construction: a request takes no registry or hook
  // set lock and builds no name.
  wdg::Gauge* listener_tick_ns_;
  wdg::Gauge* listener_queue_depth_;
  wdg::Gauge* memtable_bytes_;
  wdg::Gauge* maintenance_tick_ns_;
  wdg::Gauge* index_tables_;
  wdg::Counter* requests_received_;
  wdg::Counter* requests_errors_;
  wdg::Counter* requests_gets_;
  wdg::Counter* requests_writes_;
  wdg::Counter* replication_applied_;
  wdg::Counter* heartbeats_received_;
  wdg::HookSite* request_loop_site_;
  wdg::HookSite* resource_beat_site_;
  wdg::HookSite* apply_request_site_;
  wdg::HookSite* wal_append_site_;
  wdg::HookSite* resource_sample_site_;
  wdg::HookSite* partition_maintenance_site_;

  wdg::Endpoint* endpoint_ = nullptr;
  std::atomic<bool> running_{false};
  wdg::StopFlag stop_;
  wdg::JoiningThread listener_thread_;
  wdg::JoiningThread heartbeat_thread_;
  wdg::JoiningThread maintenance_thread_;
  std::atomic<size_t> maintenance_cursor_{0};
};

}  // namespace kvs
