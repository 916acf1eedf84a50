// Replication engine: the leader streams committed writes to followers in
// batches. The send path goes through "net.send.<follower>" — an injected
// hang there reproduces the blocked-remote-sync gray failure while the
// client-facing write path keeps acknowledging locally.
//
// Fires hook site "ReplicateBatch:1" capturing {follower, batch_size}.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/threading.h"
#include "src/kvs/types.h"
#include "src/sim/sim_net.h"
#include "src/watchdog/context.h"

namespace kvs {

struct ReplicationOptions {
  std::vector<wdg::NodeId> followers;
  size_t batch_max = 16;
  wdg::DurationNs poll_interval = wdg::Ms(10);
  wdg::DurationNs ack_timeout = wdg::Ms(200);
  size_t queue_capacity = 1024;
};

class ReplicationEngine {
 public:
  ReplicationEngine(wdg::Clock& clock, wdg::SimNet& net, wdg::NodeId leader_id,
                    wdg::HookSet& hooks, wdg::MetricsRegistry& metrics,
                    ReplicationOptions options);
  ~ReplicationEngine() { Stop(); }

  void Start();
  void Stop();

  // Enqueue a committed write for asynchronous replication.
  void Enqueue(const Request& request);

  size_t QueueDepth() const { return queue_.Size(); }
  int64_t batches_sent() const { return batches_sent_.load(); }
  int64_t ack_failures() const { return ack_failures_.load(); }
  const std::vector<wdg::NodeId>& followers() const { return options_.followers; }

 private:
  void Loop();
  wdg::Status SendBatch(const std::vector<std::string>& batch);

  wdg::Clock& clock_;
  wdg::SimNet& net_;
  wdg::NodeId leader_id_;
  wdg::Endpoint* endpoint_ = nullptr;  // dedicated "<leader>.repl" endpoint
  wdg::HookSet& hooks_;
  wdg::MetricsRegistry& metrics_;
  // Resolved once: Enqueue runs on every write, Loop and SendBatch on every
  // batch.
  wdg::Gauge* queue_depth_;
  wdg::Gauge* last_tick_ns_;
  wdg::Counter* acks_;
  wdg::HookSite* replicate_batch_site_;
  ReplicationOptions options_;

  wdg::BoundedQueue<std::string> queue_;
  std::atomic<int64_t> batches_sent_{0};
  std::atomic<int64_t> ack_failures_{0};
  wdg::StopFlag stop_;
  wdg::JoiningThread thread_;
  bool started_ = false;
};

}  // namespace kvs
