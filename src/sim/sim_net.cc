#include "src/sim/sim_net.h"

#include <algorithm>

#include "src/common/strings.h"

namespace wdg {

Status Endpoint::Send(const NodeId& dst, std::string type, std::string payload, uint64_t corr_id,
                      bool is_reply) {
  Message msg;
  msg.src = id_;
  msg.dst = dst;
  msg.type = std::move(type);
  msg.payload = std::move(payload);
  msg.corr_id = corr_id;
  msg.is_reply = is_reply;
  return net_.Route(std::move(msg));
}

std::optional<Message> Endpoint::Recv(DurationNs timeout) {
  // Surface injected receive-side faults (e.g. a hung poll loop).
  const Status gate = net_.injector().Act(recv_site_);
  if (!gate.ok()) {
    return std::nullopt;
  }
  Waiter waiter;
  return Await(waiter, timeout);
}

Result<std::string> Endpoint::Call(const NodeId& dst, std::string type, std::string payload,
                                   DurationNs timeout) {
  // Listed before the send, so the reply finds its Call however fast it is.
  Waiter waiter;
  waiter.corr = net_.NextCorrId();
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiters_.push_back(&waiter);
    waiter.listed = true;
  }
  const Status sent =
      Send(dst, std::move(type), std::move(payload), waiter.corr, /*is_reply=*/false);
  if (!sent.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    UnlistLocked(waiter);
    return sent;
  }
  std::optional<Message> reply = Await(waiter, timeout);
  if (!reply.has_value()) {
    return TimeoutError(StrFormat("call to %s timed out", dst.c_str()));
  }
  return std::move(reply->payload);
}

Status Endpoint::Reply(const Message& request, std::string payload) {
  return Send(request.src, request.type + ".reply", std::move(payload), request.corr_id,
              /*is_reply=*/true);
}

size_t Endpoint::PendingCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inbox_.size();
}

void Endpoint::Deliver(Message msg, TimeNs deliver_at) {
  std::lock_guard<std::mutex> lock(mu_);
  bool awaited = !msg.is_reply;
  for (Waiter* waiter : waiters_) {
    if (!Wants(*waiter, msg)) {
      continue;
    }
    awaited = true;
    // Bring a parked waiter's wake-up forward to the due time; waking it now
    // would only find the message not yet deliverable.
    if (waiter->timer != nullptr && waiter->wake_at > deliver_at) {
      waiter->wake_at = deliver_at;
      waiter->timer->ArmAfter(deliver_at - net_.clock().NowNs());
    }
  }
  if (!awaited) {
    net_.replies_orphaned_->Increment();  // its Call already gave up
    return;
  }
  inbox_.emplace(deliver_at, std::move(msg));
}

std::optional<Message> Endpoint::Await(Waiter& waiter, DurationNs timeout) {
  Clock& clock = net_.clock();
  const TimeNs deadline = clock.NowNs() + timeout;
  std::optional<Message> taken;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    const TimeNs now = clock.NowNs();
    auto it = inbox_.begin();
    while (it != inbox_.end() && it->first <= now && !Wants(waiter, it->second)) {
      ++it;
    }
    if (it != inbox_.end() && it->first <= now) {
      taken = std::move(it->second);
      inbox_.erase(it);
      break;
    }
    if (now >= deadline) {
      break;
    }
    // Park until the earliest wanted message falls due, the deadline, or the
    // 5 ms re-check, whichever comes first; Deliver brings it forward.
    TimeNs wake = std::min(deadline, now + Ms(5));
    for (; it != inbox_.end() && it->first < wake; ++it) {
      if (Wants(waiter, it->second)) {
        wake = it->first;
        break;
      }
    }
    if (!waiter.listed) {
      waiters_.push_back(&waiter);
      waiter.listed = true;
    }
    waiter.timer = &ThreadTimer::ForThisThread();
    waiter.wake_at = wake;
    waiter.timer->ArmAfter(wake - now);
    lock.unlock();
    waiter.timer->Wait();
    lock.lock();
  }
  UnlistLocked(waiter);
  return taken;
}

void Endpoint::UnlistLocked(Waiter& waiter) {
  if (!waiter.listed) {
    return;
  }
  waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &waiter));
  waiter.listed = false;
  if (waiter.corr == 0) {
    return;
  }
  // A reply still in flight for a finished Call would never be taken.
  for (auto it = inbox_.begin(); it != inbox_.end();) {
    if (Wants(waiter, it->second)) {
      it = inbox_.erase(it);
      net_.replies_orphaned_->Increment();
    } else {
      ++it;
    }
  }
}

SimNet::SimNet(Clock& clock, FaultInjector& injector, NetOptions options, uint64_t seed)
    : clock_(clock), injector_(injector), options_(options),
      drop_probability_(options.drop_probability), rng_(seed),
      messages_sent_(metrics_.GetCounter("net.messages_sent")),
      replies_orphaned_(metrics_.GetCounter("net.replies_orphaned")) {}

Endpoint* SimNet::CreateEndpoint(const NodeId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = endpoints_[id];
  if (!slot) {
    slot = std::make_unique<Endpoint>(*this, id);
  }
  return slot.get();
}

Endpoint* SimNet::GetEndpoint(const NodeId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = endpoints_.find(id);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

void SimNet::Partition(const NodeId& a, const NodeId& b) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.insert(std::minmax(a, b));
}

void SimNet::Heal(const NodeId& a, const NodeId& b) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.erase(std::minmax(a, b));
}

void SimNet::HealAll() {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.clear();
}

bool SimNet::IsPartitioned(const NodeId& a, const NodeId& b) const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_.count(std::minmax(a, b)) > 0;
}

void SimNet::set_drop_probability(double p) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_probability_ = p;
}

Status SimNet::Route(Message msg) {
  messages_sent_->Increment();

  // Injected faults on the send path. Corruption mangles the payload in
  // flight; hang blocks the *sender* — exactly the ZK-2201 shape. A known
  // destination's endpoint carries its site name; endpoints are never
  // removed, so `dst` stays valid.
  Endpoint* dst = GetEndpoint(msg.dst);
  const std::string unknown_site = dst == nullptr ? "net.send." + msg.dst : std::string();
  const std::string& site = dst != nullptr ? dst->send_site_ : unknown_site;
  bool dropped = false;
  WDG_RETURN_IF_ERROR(injector_.Act(site, &msg.payload, &dropped));
  if (dropped) {
    metrics_.GetCounter("net.messages_dropped")->Increment();
    return Status::Ok();
  }

  DurationNs latency = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (partitions_.count(std::minmax(msg.src, msg.dst)) > 0) {
      metrics_.GetCounter("net.messages_partitioned")->Increment();
      return Status::Ok();  // packets into a partition vanish silently
    }
    if (drop_probability_ > 0 && rng_.Bernoulli(drop_probability_)) {
      metrics_.GetCounter("net.messages_dropped")->Increment();
      return Status::Ok();
    }
    if (dst == nullptr) {
      const auto it = endpoints_.find(msg.dst);
      if (it == endpoints_.end()) {
        return UnavailableError(StrFormat("no such node %s", msg.dst.c_str()));
      }
      dst = it->second.get();
    }
    latency = options_.base_latency +
              options_.per_kb_latency *
                  static_cast<DurationNs>(msg.payload.size() / 1024 + 1);
  }
  dst->Deliver(std::move(msg), clock_.NowNs() + latency);
  return Status::Ok();
}

}  // namespace wdg
