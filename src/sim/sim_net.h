// SimNet: an in-process message network with latency, drops and partitions.
// Stands in for the production networks whose misbehaviour triggers gray
// failures like ZOOKEEPER-2201 (a remote sync blocking forever).
//
// Fault sites: "net.send.<dst>" and "net.recv.<node>" — so a campaign can
// hang exactly the leader→follower link ("net.send.follower1") while every
// other flow, including heartbeats, keeps working.
//
// Delivery contract. A message sent at t is due at t + latency and is never
// surfaced before that. A thread blocked in Recv or Call wakes once per
// message it is waiting for, when that message is due, not when it is sent:
// each waiting thread parks on its own kernel timer (a ThreadTimer, created
// on the thread's first wait), and Deliver moves a parked waiter's timer
// forward to the new message's due time instead of waking it. A parked
// thread also wakes at its deadline, and at least every 5 ms, so a clock
// that is not real time (SimClock) is re-read that often. Messages due at the
// same time surface in send order. A reply that no waiting Call will take (it
// came after the Call gave up) is dropped and counted in
// "net.replies_orphaned".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/common/threading.h"
#include "src/fault/fault_injector.h"

namespace wdg {

using NodeId = std::string;

struct Message {
  NodeId src;
  NodeId dst;
  std::string type;     // application-level tag, e.g. "kvs.set", "zk.heartbeat"
  std::string payload;
  uint64_t corr_id = 0;  // request/reply correlation
  bool is_reply = false;
};

struct NetOptions {
  DurationNs base_latency = Us(100);
  DurationNs per_kb_latency = Us(5);
  double drop_probability = 0.0;
};

class SimNet;

// One node's attachment point. Obtained from SimNet::CreateEndpoint; owned by
// the SimNet (stable pointer).
class Endpoint {
 public:
  Endpoint(SimNet& net, NodeId id)
      : net_(net), id_(std::move(id)), recv_site_("net.recv." + id_),
        send_site_("net.send." + id_) {}

  const NodeId& id() const { return id_; }

  // Fire-and-forget send. Errors surface injected faults or partitions;
  // probabilistic drops are silent (like UDP).
  Status Send(const NodeId& dst, std::string type, std::string payload, uint64_t corr_id = 0,
              bool is_reply = false);

  // Blocks until a non-reply message is deliverable or the timeout expires.
  std::optional<Message> Recv(DurationNs timeout);

  // RPC: send a request and wait for the matching reply.
  Result<std::string> Call(const NodeId& dst, std::string type, std::string payload,
                           DurationNs timeout);

  // Replies to a received request.
  Status Reply(const Message& request, std::string payload);

  size_t PendingCount() const;

 private:
  friend class SimNet;

  // A thread in Recv (corr 0: any request) or Call (the reply with its
  // correlation id). Fields are guarded by mu_.
  struct Waiter {
    uint64_t corr = 0;
    bool listed = false;           // in waiters_: a Call from its send on, a Recv once parked
    ThreadTimer* timer = nullptr;  // set once the thread has parked
    TimeNs wake_at = 0;            // when `timer` fires; Deliver moves it earlier
  };

  static bool Wants(const Waiter& waiter, const Message& msg) {
    return waiter.corr == 0 ? !msg.is_reply : msg.is_reply && msg.corr_id == waiter.corr;
  }

  void Deliver(Message msg, TimeNs deliver_at);
  // Takes the first deliverable message `waiter` wants, parking until one is
  // due or the timeout passes; unlists the waiter before it returns.
  std::optional<Message> Await(Waiter& waiter, DurationNs timeout);
  void UnlistLocked(Waiter& waiter);

  SimNet& net_;
  NodeId id_;
  std::string recv_site_;  // "net.recv.<id>", built once: Recv runs every poll
  std::string send_site_;  // "net.send.<id>", built once: every send to this node

  mutable std::mutex mu_;
  // deliver_at -> message; Recv only surfaces messages whose time has come.
  std::multimap<TimeNs, Message> inbox_;
  std::vector<Waiter*> waiters_;  // parked threads and open Calls
};

class SimNet {
 public:
  SimNet(Clock& clock, FaultInjector& injector, NetOptions options = {}, uint64_t seed = 7);

  // Idempotent: returns the existing endpoint if the node is already attached.
  Endpoint* CreateEndpoint(const NodeId& id);
  Endpoint* GetEndpoint(const NodeId& id);

  // Bidirectional partition between two nodes: sends in either direction are
  // dropped (with a logged counter) until healed.
  void Partition(const NodeId& a, const NodeId& b);
  void Heal(const NodeId& a, const NodeId& b);
  void HealAll();
  bool IsPartitioned(const NodeId& a, const NodeId& b) const;

  void set_drop_probability(double p);

  Clock& clock() { return clock_; }
  FaultInjector& injector() { return injector_; }
  MetricsRegistry& metrics() { return metrics_; }
  uint64_t NextCorrId() { return corr_counter_.fetch_add(1) + 1; }

 private:
  friend class Endpoint;

  // Send path implementation shared by Endpoint::Send.
  Status Route(Message msg);

  Clock& clock_;
  FaultInjector& injector_;
  NetOptions options_;
  mutable std::mutex mu_;
  std::map<NodeId, std::unique_ptr<Endpoint>> endpoints_;
  std::set<std::pair<NodeId, NodeId>> partitions_;  // normalized (min,max) pairs
  double drop_probability_;
  Rng rng_;
  std::atomic<uint64_t> corr_counter_{0};
  MetricsRegistry metrics_;
  Counter* messages_sent_;  // resolved once: Route counts every message
  Counter* replies_orphaned_;
};

}  // namespace wdg
