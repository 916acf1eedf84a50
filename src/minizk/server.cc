#include "src/minizk/server.h"

#include "src/minizk/ctx_keys.h"

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/minizk/zk_types.h"

namespace minizk {

ZkNode::ZkNode(wdg::Clock& clock, wdg::SimDisk& disk, wdg::SimNet& net, ZkOptions options)
    : clock_(clock), disk_(disk), net_(net), options_(std::move(options)), tree_(clock_) {
  ProcessorOptions processor_options;
  processor_options.followers = options_.followers;
  processor_options.snapshot_every_n = options_.snapshot_every_n;
  processor_options.txn_log_path = options_.data_dir + "/" + options_.node_id + "/txn.log";
  processor_options.snap_path = options_.data_dir + "/" + options_.node_id + "/snapshot";
  processor_options.sync_timeout = options_.sync_timeout;
  processor_ = std::make_unique<SyncRequestProcessor>(clock_, disk_, net_, options_.node_id,
                                                      tree_, hooks_, metrics_,
                                                      processor_options);
}

ZkNode::~ZkNode() { Stop(); }

wdg::Status ZkNode::Start() {
  if (running_.exchange(true)) {
    return wdg::Status::Ok();
  }
  endpoint_ = net_.CreateEndpoint(options_.node_id);
  WDG_RETURN_IF_ERROR(processor_->Start());
  listener_thread_ = wdg::JoiningThread([this] { ListenerLoop(); });
  if (!options_.followers.empty()) {
    session_thread_ = wdg::JoiningThread([this] { SessionLoop(); });
  }
  return wdg::Status::Ok();
}

void ZkNode::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  stop_.Request();
  listener_thread_.Join();
  session_thread_.Join();
  processor_->Stop();
}

void ZkNode::ListenerLoop() {
  while (!stop_.Requested()) {
    hooks_.Site("ListenerLoop:2")->Fire([&](wdg::CheckContext& ctx) {
      ctx.Set(keys::Node(), options_.node_id);
      ctx.MarkReady(clock_.NowNs());
    });
    metrics_.GetGauge("zk.listener.last_tick_ns")->Set(static_cast<double>(clock_.NowNs()));
    hooks_.Site("ResourceBeat:1")->Fire([&](wdg::CheckContext& ctx) {
      const wdg::TimeNs beat = clock_.NowNs();
      ctx.Set(keys::ResLastBeatNs(), static_cast<int64_t>(beat));
      ctx.Set(keys::ResQueueDepth(),
              static_cast<int64_t>(endpoint_->PendingCount()));
      ctx.MarkReady(beat);
    });
    auto msg = endpoint_->Recv(wdg::Ms(5));
    if (!msg.has_value()) {
      continue;
    }
    if (msg->type == kMsgGet) {
      // Reads bypass the write pipeline entirely — they stay healthy while
      // ZK-2201 wedges the processor.
      const auto decoded = DecodePathData(msg->payload);
      std::string reply = "ERR";
      if (decoded.ok()) {
        const auto node = tree_.GetData(decoded->first);
        reply = node.ok() ? "ok\x1f" + node->data : node.status().ToString();
      }
      (void)endpoint_->Reply(*msg, reply);
      metrics_.GetCounter("zk.reads")->Increment();
    } else if (msg->type == kMsgCreate || msg->type == kMsgSet || msg->type == kMsgDelete) {
      PendingWrite write;
      const auto decoded = DecodePathData(msg->payload);
      if (!decoded.ok()) {
        (void)endpoint_->Reply(*msg, decoded.status().ToString());
        continue;
      }
      write.original = *msg;
      write.op = msg->type;
      write.path = decoded->first;
      write.data = decoded->second;
      if (!processor_->Enqueue(std::move(write))) {
        (void)endpoint_->Reply(*msg, "ERR: write pipeline full");
      }
      // Otherwise the processor replies after commit.
    } else if (msg->type == kMsgChildren) {
      const auto decoded = DecodePathData(msg->payload);
      std::string reply = "ok";
      if (decoded.ok()) {
        for (const std::string& child : tree_.Children(decoded->first)) {
          reply += '\x1f' + child;
        }
      }
      (void)endpoint_->Reply(*msg, reply);
    } else if (msg->type == kMsgRuok) {
      // The admin command ZK-2201's operators watched — it answered "imok"
      // throughout the failure because the listener thread was fine.
      (void)endpoint_->Reply(*msg, "imok");
      metrics_.GetCounter("zk.ruok")->Increment();
    } else if (msg->type == kMsgStat) {
      (void)endpoint_->Reply(
          *msg, wdg::StrFormat("nodes=%zu committed=%lld queue=%zu", tree_.NodeCount(),
                               static_cast<long long>(processor_->committed()),
                               processor_->QueueDepth()));
    } else if (msg->type == kMsgWdgProbe) {
      (void)endpoint_->Reply(*msg, "ok");
    }
  }
}

void ZkNode::SessionLoop() {
  // Session heartbeats travel to "<follower>.hb" endpoints: a *different*
  // network site than the remote-sync path, so a sync-link fault leaves them
  // untouched (the precise reason ZK's heartbeat protocol missed ZK-2201).
  wdg::Endpoint* ping_ep = net_.CreateEndpoint(options_.node_id + ".ping");
  while (!stop_.WaitFor(options_.ping_interval)) {
    metrics_.GetGauge("zk.session.last_tick_ns")->Set(static_cast<double>(clock_.NowNs()));
    for (const wdg::NodeId& follower : options_.followers) {
      hooks_.Site("SessionLoop:2")->Fire([&](wdg::CheckContext& ctx) {
        ctx.Set(keys::Follower(), follower);
        ctx.MarkReady(clock_.NowNs());
      });
      const auto ack = ping_ep->Call(follower + ".hb", kMsgPing, options_.node_id, wdg::Ms(100));
      if (ack.ok()) {
        pings_acked_.fetch_add(1);
        metrics_.GetCounter("zk.session.ping_acks")->Increment();
      } else {
        metrics_.GetCounter("zk.session.ping_failures")->Increment();
      }
    }
  }
}

ZkFollower::ZkFollower(wdg::Clock& clock, wdg::SimNet& net, wdg::NodeId id)
    : clock_(clock), net_(net), id_(std::move(id)), tree_(clock) {
  net_.CreateEndpoint(id_);
  net_.CreateEndpoint(id_ + ".hb");
}

void ZkFollower::ApplySync(const std::string& txn) {
  // txn format: "<op> <path>\x1f<data>" (same framing as the txn log).
  const size_t space = txn.find(' ');
  if (space == std::string::npos) {
    return;
  }
  const std::string op = txn.substr(0, space);
  const auto decoded = DecodePathData(txn.substr(space + 1));
  if (!decoded.ok()) {
    return;
  }
  if (op == kMsgCreate) {
    (void)tree_.Create(decoded->first, decoded->second);
  } else if (op == kMsgSet) {
    (void)tree_.SetData(decoded->first, decoded->second);
  } else if (op == kMsgDelete) {
    (void)tree_.Delete(decoded->first);
  }
}

ZkFollower::~ZkFollower() { Stop(); }

void ZkFollower::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  main_thread_ = wdg::JoiningThread([this] { MainLoop(); });
  hb_thread_ = wdg::JoiningThread([this] { HbLoop(); });
}

void ZkFollower::Stop() {
  stop_.Request();
  main_thread_.Join();
  hb_thread_.Join();
  started_ = false;
}

void ZkFollower::MainLoop() {
  wdg::Endpoint* ep = net_.GetEndpoint(id_);
  while (!stop_.Requested()) {
    auto msg = ep->Recv(wdg::Ms(5));
    if (!msg.has_value()) {
      continue;
    }
    if (msg->type == kMsgSync) {
      ApplySync(msg->payload);
      syncs_acked_.fetch_add(1);
      (void)ep->Reply(*msg, "synced");
    } else if (msg->type == kMsgRuok) {
      (void)ep->Reply(*msg, "imok");
    } else if (msg->type == kMsgWdgProbe) {
      (void)ep->Reply(*msg, "ok");
    }
  }
}

void ZkFollower::HbLoop() {
  wdg::Endpoint* ep = net_.GetEndpoint(id_ + ".hb");
  while (!stop_.Requested()) {
    auto msg = ep->Recv(wdg::Ms(5));
    if (!msg.has_value()) {
      continue;
    }
    if (msg->type == kMsgPing) {
      pings_acked_.fetch_add(1);
      (void)ep->Reply(*msg, "pong");
    } else if (msg->type == kMsgWdgProbe) {
      (void)ep->Reply(*msg, "ok");
    }
  }
}

}  // namespace minizk
