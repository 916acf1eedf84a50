#include "src/kvs/replication.h"

#include "src/kvs/ctx_keys.h"

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace kvs {

namespace {
constexpr char kBatchSep = '\x1d';
}

ReplicationEngine::ReplicationEngine(wdg::Clock& clock, wdg::SimNet& net,
                                     wdg::NodeId leader_id, wdg::HookSet& hooks,
                                     wdg::MetricsRegistry& metrics, ReplicationOptions options)
    : clock_(clock), net_(net), leader_id_(std::move(leader_id)), hooks_(hooks),
      metrics_(metrics),
      queue_depth_(metrics_.GetGauge("kvs.replication.queue_depth")),
      last_tick_ns_(metrics_.GetGauge("kvs.replication.last_tick_ns")),
      acks_(metrics_.GetCounter("kvs.replication.acks")),
      replicate_batch_site_(hooks_.Site("ReplicateBatch:1")),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {
  endpoint_ = net_.CreateEndpoint(leader_id_ + ".repl");
}

void ReplicationEngine::Start() {
  if (started_ || options_.followers.empty()) {
    return;
  }
  started_ = true;
  thread_ = wdg::JoiningThread([this] { Loop(); });
}

void ReplicationEngine::Stop() {
  stop_.Request();
  queue_.Shutdown();
  thread_.Join();
  started_ = false;
}

void ReplicationEngine::Enqueue(const Request& request) {
  if (options_.followers.empty()) {
    return;
  }
  if (!queue_.Push(request.Encode(), wdg::Ms(50))) {
    metrics_.GetCounter("kvs.replication.queue_overflow")->Increment();
  }
  queue_depth_->Set(static_cast<double>(queue_.Size()));
}

void ReplicationEngine::Loop() {
  // Logged once per streak of failed batches, like the flusher's failures.
  int64_t failed_streak = 0;
  while (!stop_.Requested()) {
    last_tick_ns_->Set(static_cast<double>(clock_.NowNs()));
    std::vector<std::string> batch;
    const auto first = queue_.Pop(options_.poll_interval);
    if (!first.has_value()) {
      continue;
    }
    batch.push_back(*first);
    while (batch.size() < options_.batch_max) {
      auto more = queue_.TryPop();
      if (!more.has_value()) {
        break;
      }
      batch.push_back(std::move(*more));
    }
    const wdg::Status status = SendBatch(batch);
    if (!status.ok()) {
      if (failed_streak++ == 0) {
        WDG_LOG(kWarn) << "replication batch failed: " << status;
      }
    } else if (failed_streak > 0) {
      WDG_LOG(kWarn) << "replication recovered after " << failed_streak << " failed batches";
      failed_streak = 0;
    }
    queue_depth_->Set(static_cast<double>(queue_.Size()));
  }
}

wdg::Status ReplicationEngine::SendBatch(const std::vector<std::string>& batch) {
  std::string payload;
  for (const std::string& record : batch) {
    payload += record;
    payload += kBatchSep;
  }
  wdg::Status result = wdg::Status::Ok();
  for (const wdg::NodeId& follower : options_.followers) {
    replicate_batch_site_->Fire([&](wdg::CheckContext& ctx) {
      ctx.Set(keys::Follower(), follower);
      ctx.Set(keys::BatchSize(), static_cast<int64_t>(batch.size()));
      ctx.MarkReady(clock_.NowNs());
    });
    // The Call blocks inside net.send.<follower> under an injected hang —
    // this thread wedges exactly like ZooKeeper's remote sync.
    const auto ack = endpoint_->Call(follower, kMsgReplicate, payload, options_.ack_timeout);
    if (!ack.ok()) {
      ack_failures_.fetch_add(1);
      metrics_.GetCounter("kvs.replication.ack_failures")->Increment();
      result = ack.status();
      continue;
    }
    acks_->Increment();
  }
  batches_sent_.fetch_add(1);
  return result;
}

}  // namespace kvs
