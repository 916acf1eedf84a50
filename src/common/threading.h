// Threading primitives shared by the simulator and the monitored systems.
// All blocking here is deadline- and shutdown-aware: nothing in this codebase
// blocks forever unless a fault was *injected* to make it do so.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"

namespace wdg {

// Cooperative stop signal with blocking wait.
class StopFlag {
 public:
  void Request() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

  bool Requested() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stopped_;
  }

  // Returns true if stop was requested within the wait window.
  bool WaitFor(DurationNs ns) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::nanoseconds(ns), [&] { return stopped_; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
};

// MPMC bounded queue; Push/Pop block with timeouts and honor Shutdown.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  // Returns false on timeout or shutdown.
  bool Push(T item, DurationNs timeout = Sec(3600)) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!not_full_.wait_for(lock, std::chrono::nanoseconds(timeout),
                            [&] { return shutdown_ || items_.size() < capacity_; })) {
      return false;
    }
    if (shutdown_) {
      return false;
    }
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Returns nullopt on timeout or shutdown-with-empty-queue.
  std::optional<T> Pop(DurationNs timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!not_empty_.wait_for(lock, std::chrono::nanoseconds(timeout),
                             [&] { return shutdown_ || !items_.empty(); })) {
      return std::nullopt;
    }
    if (items_.empty()) {
      return std::nullopt;  // shutdown
    }
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool shutdown() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shutdown_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool shutdown_ = false;
};

// Auto-reset notification. WaitFor returns true when Notify was called
// (including a Notify that raced ahead of the wait), false on timeout.
class Event {
 public:
  void Notify() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      signaled_ = true;
    }
    cv_.notify_all();
  }

  bool WaitFor(DurationNs ns) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool signaled =
        cv_.wait_for(lock, std::chrono::nanoseconds(ns), [&] { return signaled_; });
    signaled_ = false;
    return signaled;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool signaled_ = false;
};

// A one-shot kernel timer (a Linux timerfd) that belongs to one thread, for a
// wait that another thread may need to bring forward: the owner arms it and
// blocks in Wait(); any thread may re-arm it (under whatever lock hands out
// the pointer) to end that wait at a chosen time instead of at once. Created
// by the thread's first ForThisThread() call, closed when the thread exits.
class ThreadTimer {
 public:
  static ThreadTimer& ForThisThread();
  ~ThreadTimer();
  ThreadTimer(const ThreadTimer&) = delete;
  ThreadTimer& operator=(const ThreadTimer&) = delete;

  // Fires once, `after` from now (at least 1 ns); replaces any earlier arming
  // and forgets an expiry nobody waited for.
  void ArmAfter(DurationNs after);
  // Blocks the owner until the armed time. If the kernel refused a timer (out
  // of descriptors), sleeps 100 us instead: callers re-check their condition.
  void Wait();

 private:
  ThreadTimer();
  int fd_;
};

// std::thread wrapper that joins on destruction (and never detaches).
class JoiningThread {
 public:
  JoiningThread() = default;
  template <typename F>
  explicit JoiningThread(F&& fn) : thread_(std::forward<F>(fn)) {}
  JoiningThread(JoiningThread&&) = default;
  JoiningThread& operator=(JoiningThread&& other) {
    Join();
    thread_ = std::move(other.thread_);
    return *this;
  }
  ~JoiningThread() { Join(); }

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  bool joinable() const { return thread_.joinable(); }

 private:
  std::thread thread_;
};

// Fixed-size pool of long-lived workers draining a bounded task queue.
//
// Each submitted task gets a ticket. A caller that decides a task is wedged
// calls AbandonIfRunning(ticket): the worker executing it is *abandoned* —
// its thread leaves the active set, parked on a drain list until Stop, and
// exactly one replacement worker is spawned — so pool capacity never shrinks
// while the hung task blocks only itself. This is the execution half of the
// watchdog's §3.2 guarantee (a hung checker is detected, never waited on),
// but the primitive is generic.
//
// The queue is a fixed ring owned by the pool (no per-node heap traffic), and
// every bookkeeping structure is pre-sized, so steady-state submit/dispatch
// performs zero allocations.
//
// Stop() contract: the caller must first unblock anything that could keep an
// abandoned task hung forever (the watchdog driver runs release_on_stop);
// Stop then discards still-queued tasks and joins every thread ever spawned.
class WorkerPool {
 public:
  struct Options {
    int workers = 4;
    size_t queue_capacity = 256;
  };
  using Task = std::function<void()>;

  explicit WorkerPool(Options options)
      : options_(options),
        capacity_(options.queue_capacity == 0 ? 1 : options.queue_capacity) {
    ring_.resize(capacity_);
    claims_.reserve(256);
  }
  ~WorkerPool() { Stop(); }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Start() {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      return;
    }
    started_ = true;
    while (static_cast<int>(workers_.size()) < options_.workers) {
      SpawnWorkerLocked();
    }
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!started_ || stopping_) {
        return;
      }
      stopping_ = true;
      // Discard tasks that never dispatched; their submitters are gone.
      while (count_ > 0) {
        PopFrontLocked();
      }
    }
    not_empty_.notify_all();
    // Join active workers first, then abandoned ones (whose hung tasks the
    // caller is expected to have unblocked before calling Stop).
    std::vector<std::unique_ptr<Worker>> to_join;
    {
      std::lock_guard<std::mutex> lock(mu_);
      to_join.swap(workers_);
    }
    to_join.clear();  // JoiningThread dtor joins
    {
      std::lock_guard<std::mutex> lock(mu_);
      to_join.swap(drained_);
    }
    to_join.clear();
  }

  // Reserves a ticket without submitting anything. Lets the submitter publish
  // the ticket into its own bookkeeping *before* the task becomes runnable,
  // so a completion can never observe an unset ticket.
  uint64_t ReserveTicket() {
    return next_ticket_.fetch_add(1, std::memory_order_relaxed);
  }

  // Non-blocking enqueue under a caller-reserved ticket (see ReserveTicket);
  // false when the queue is full (backpressure) or the pool is stopped. The
  // ticket identifies the task for AbandonIfRunning.
  bool TrySubmitTicketed(uint64_t ticket, Task task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!started_ || stopping_ || count_ == capacity_) {
        return false;
      }
      PushBackLocked(Item{ticket, std::move(task)});
    }
    not_empty_.notify_one();
    return true;
  }

  // If `ticket`'s task is still executing, abandon its worker (park the
  // thread, spawn a replacement) and return true. False when the task already
  // completed — the caller should re-check its completion state.
  bool AbandonIfRunning(uint64_t ticket) {
    std::lock_guard<std::mutex> lock(mu_);
    Worker* worker = nullptr;
    for (size_t i = 0; i < claims_.size(); ++i) {
      if (claims_[i].ticket == ticket) {
        worker = claims_[i].worker;
        claims_[i] = claims_.back();
        claims_.pop_back();
        break;
      }
    }
    if (worker == nullptr) {
      return false;
    }
    worker->abandoned = true;
    for (auto wit = workers_.begin(); wit != workers_.end(); ++wit) {
      if (wit->get() == worker) {
        drained_.push_back(std::move(*wit));
        workers_.erase(wit);
        break;
      }
    }
    abandoned_.fetch_add(1, std::memory_order_relaxed);
    // Exactly one replacement per abandoned worker restores the fixed size.
    if (!stopping_) {
      SpawnWorkerLocked();
    }
    return true;
  }

  int active_workers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(workers_.size());
  }
  size_t queue_capacity() const { return capacity_; }
  size_t QueueDepth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  int BusyCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(claims_.size());
  }
  // Threads ever created (initial workers + one respawn per abandonment).
  int64_t threads_spawned() const { return threads_spawned_.load(std::memory_order_relaxed); }
  int64_t abandoned_count() const { return abandoned_.load(std::memory_order_relaxed); }

 private:
  struct Worker {
    JoiningThread thread;
    bool abandoned = false;  // guarded by mu_
  };
  struct Item {
    uint64_t ticket = 0;
    Task task;
  };
  struct Claim {
    uint64_t ticket = 0;
    Worker* worker = nullptr;
  };

  void PushBackLocked(Item item) {
    ring_[(head_ + count_) % capacity_] = std::move(item);
    ++count_;
  }

  Item PopFrontLocked() {
    Item item = std::move(ring_[head_]);
    ring_[head_] = Item{};
    head_ = (head_ + 1) % capacity_;
    --count_;
    return item;
  }

  void SpawnWorkerLocked() {
    auto worker = std::make_unique<Worker>();
    Worker* raw = worker.get();
    threads_spawned_.fetch_add(1, std::memory_order_relaxed);
    worker->thread = JoiningThread([this, raw] { WorkerLoop(raw); });
    workers_.push_back(std::move(worker));
  }

  void WorkerLoop(Worker* self) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      not_empty_.wait(lock, [&] { return stopping_ || count_ > 0; });
      if (stopping_) {
        return;
      }
      Item item = PopFrontLocked();
      claims_.push_back(Claim{item.ticket, self});
      lock.unlock();
      item.task();
      lock.lock();
      for (size_t i = 0; i < claims_.size(); ++i) {
        if (claims_[i].ticket == item.ticket) {
          claims_[i] = claims_.back();
          claims_.pop_back();
          break;
        }
      }
      if (self->abandoned) {
        return;  // a replacement already took this worker's slot
      }
    }
  }

  const Options options_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  bool started_ = false;
  bool stopping_ = false;
  std::atomic<uint64_t> next_ticket_{1};
  std::vector<Item> ring_;  // fixed ring buffer; head_/count_ guarded by mu_
  size_t head_ = 0;
  size_t count_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;  // active
  std::vector<std::unique_ptr<Worker>> drained_;  // abandoned, joined at Stop
  std::vector<Claim> claims_;                     // ticket -> executing worker
  std::atomic<int64_t> threads_spawned_{0};
  std::atomic<int64_t> abandoned_{0};
};

}  // namespace wdg
