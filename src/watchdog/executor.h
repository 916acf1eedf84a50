// CheckerExecutor: the execution half of the watchdog driver (paper §3.1/§3.2).
//
// The driver used to spawn a fresh thread per checker execution per interval;
// at hundreds of checkers that is hundreds of thread creations per second
// inside the monitored process — exactly the unbounded overhead the paper
// warns a watchdog must not impose. The executor replaces that with a fixed
// pool of long-lived workers fed by a bounded queue:
//
//   - SubmitBatch() is non-blocking; a full queue is *backpressure* and the
//     scheduler simply retries at its next wake, so a slow pool throttles
//     checking instead of ballooning threads;
//   - a batch of due executions is one pool task: the worker claims and runs
//     them serially, so a fleet of cheap mimic checks pays one queue
//     round-trip per batch instead of one per check, and stamps the batch's
//     finish, from which the scheduler reschedules its runs (docs/DRIVER.md,
//     "Batched dispatch");
//   - batches live in recycled slabs (`DispatchBatch`) drawn from a per-
//     executor freelist, and the pool queue is a fixed ring, so a steady-state
//     dispatch round performs zero heap allocations (docs/DRIVER.md,
//     "Allocation-free dispatch"); the freelist is owned by the shard's
//     scheduler thread — no lock;
//   - a worker stuck past its checker's deadline is abandoned via
//     WorkerPool::AbandonIfRunning — the thread leaves the pool (parked on a
//     drain list until Stop) and a replacement is spawned, preserving §3.2:
//     the hang is the detection, and the driver never blocks on it. The
//     scheduler claims the hang through the execution's state machine
//     (kRunning→kAbandoned, exactly once) and cancels the batch's not-yet-
//     started siblings (kPending→kCancelled) so they re-dispatch promptly on
//     a healthy worker instead of waiting out the hang;
//   - a checker that throws is caught on the worker and surfaces as a
//     CHECKER_CRASH signature, never an exception in the main program;
//   - queue delay (enqueue→dispatch) is sampled into a shared histogram so
//     the watchdog can observe its own scheduling health (DriverMetrics());
//   - the pool size never changes: it is always `workers` live threads, and
//     each abandonment spawns exactly one replacement.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/threading.h"
#include "src/watchdog/checker.h"

namespace wdg {

struct DispatchBatch;

// Lifecycle of one execution inside its batch. The worker CASes
// kPending→kRunning to claim and kRunning→kDone to close out; the scheduler
// CASes kRunning→kAbandoned to claim a hang (exactly once — whoever wins the
// CAS owns the transition) and kPending→kCancelled to pull an unstarted
// sibling out of an abandoned batch for re-dispatch.
enum class ExecState : uint8_t {
  kPending = 0,
  kRunning,
  kDone,
  kCancelled,
  kAbandoned,
};

// Shared control block of one dispatched batch: the pool ticket of the batch
// task and the abandon latch the worker polls between executions. Only the
// shard's scheduler thread writes the ticket (SubmitBatch) and reads it
// (AbandonBatch), so it needs no atomic.
struct ExecutionBatch {
  uint64_t ticket = 0;
  std::atomic<bool> abandoned{false};
};

// One in-flight checker execution. It lives inside a recycled DispatchBatch
// slab: the scheduler references it through the checker's slot, the worker
// through the batch task — the slab is recycled only after both sides are
// provably finished (scheduler refs drained AND worker released). The worker
// fills the result fields and flips `done` last (release); the scheduler
// reads them only after observing done == true (acquire). No mutex.
struct Execution {
  Checker* checker = nullptr;
  TimeNs enqueue_time = 0;
  // 0 until a worker picks the execution up; the deadline for hang
  // abandonment counts from this point (execution time, not queue time).
  std::atomic<TimeNs> dispatch_time{0};
  std::atomic<uint8_t> state{static_cast<uint8_t>(ExecState::kPending)};
  std::atomic<bool> done{false};

  bool crashed = false;
  CheckResult result;
  std::string crash_what;
  TimeNs complete_time = 0;  // worker-side timestamp, exact run latency

  DispatchBatch* slab = nullptr;    // owning slab (set once at slab creation)
  ExecutionBatch* batch = nullptr;  // == &slab->control (set once)
};

// A recyclable dispatch slab: the batch control block plus embedded storage
// for up to `capacity` executions. Owned by one executor's freelist and only
// ever touched by that shard's scheduler thread (acquire/release/recycle) and
// by the single worker running its task (RunBatch). Never freed before the
// executor is destroyed, so scheduler-held Execution pointers stay valid
// through Stop().
struct DispatchBatch {
  ExecutionBatch control;
  std::unique_ptr<Execution[]> storage;
  size_t capacity = 0;
  size_t count = 0;     // live prefix of storage for this dispatch round
  int sched_refs = 0;   // scheduler-only: outstanding Execution* references
  // Worker-side timestamp of the batch's end, written just before
  // worker_released; the scheduler reads it only after an acquire load of
  // worker_released == true. Passing runs reschedule from it, so checkers
  // that were launched together stay together.
  TimeNs finished_at = 0;
  // Set (release) by the worker as its last touch of the slab — or never, if
  // the batch was discarded unrun at Stop or its worker is still hung.
  std::atomic<bool> worker_released{true};
};

struct CheckerExecutorOptions {
  // Fixed pool size (live, non-abandoned workers).
  int workers = 4;
  size_t queue_capacity = 256;
};

class CheckerExecutor {
 public:
  using Options = CheckerExecutorOptions;

  // `workers_gauge_name` lets a sharded driver give each shard's pool its own
  // gauge (wdg.driver.shard.<i>.pool.workers) while all shards share the one
  // queue-delay histogram, so the p99 DriverMetrics() sees stays a
  // process-global number.
  CheckerExecutor(Clock& clock, MetricsRegistry& metrics, Options options,
                  const std::string& workers_gauge_name = "wdg.driver.pool.workers");
  ~CheckerExecutor();

  CheckerExecutor(const CheckerExecutor&) = delete;
  CheckerExecutor& operator=(const CheckerExecutor&) = delete;

  void Start();
  // Discards queued work and joins every worker ever spawned, including
  // abandoned ones. The caller must first unblock injected hangs
  // (WatchdogDriver runs release_on_stop before this). Slabs are NOT freed
  // here — scheduler-held Execution pointers stay valid until destruction.
  void Stop();

  // Invoked (without locks held) after a finished batch that the scheduler
  // must see before its planned wake: a run failed or crashed, the batch
  // stopped early on abandon, or the batch's next launch (finished_at + the
  // shortest interval among its passing runs) comes before the wake. Any
  // other batch wakes nobody: the scheduler reaps it on a wake it planned
  // anyway and reschedules its runs from finished_at, so the next launch is
  // not late. Set before Start().
  void SetWakeScheduler(std::function<void()> wake);

  // The scheduler's half of the completion-wake handshake (shard scheduler
  // thread only). SchedulerAwake() goes at the top of each pass, before the
  // reap: until the next SchedulerSleepsUntil(), every finished batch wakes
  // the scheduler. A worker publishes `done`, issues a seq_cst fence, then
  // reads the planned wake; the fence here pairs with it, so either the
  // worker sees "awake" and wakes the scheduler or the reap sees `done`. A
  // wake that lands while the scheduler is still awake is kept by the
  // Event's sticky flag and only costs one extra pass.
  void SchedulerAwake();
  void SchedulerSleepsUntil(TimeNs wake);

  // --- slab lifecycle (shard scheduler thread only; no locks) -------------
  // Returns a slab with at least `capacity` execution slots, recycled from
  // the freelist when one is available (allocates only while the in-flight
  // high-water mark is still growing). Also sweeps the retiring list.
  DispatchBatch* AcquireBatch(size_t capacity);
  // Drops one scheduler reference to `exec`'s slab; when the last reference
  // drops the slab moves to the retiring list and is recycled once its worker
  // has released it.
  void ReleaseExecution(Execution& exec);
  // Returns a slab that was never submitted (backpressure path) straight to
  // the freelist.
  void RecycleUnsubmitted(DispatchBatch* slab);

  // Submits `slab` (its first `count` executions) as one pool task; the
  // worker claims and runs them serially in order. The scheduler must have
  // set checker/state/done on each live execution and sched_refs on the slab
  // before calling. Non-blocking: false when the queue is full (backpressure
  // — counted once per execution) or the executor is stopped; the scheduler
  // recycles the slab and retries at its next wake. Allocation-free.
  bool SubmitBatch(DispatchBatch* slab);

  // Parks the worker running `batch` off the pool (a replacement is spawned)
  // and latches the batch abandoned so the worker, if it ever unblocks, skips
  // the remaining executions. Called by the scheduler after it won the hung
  // execution's kRunning→kAbandoned CAS, so it runs at most once per batch.
  // False when the batch task already finished.
  bool AbandonBatch(ExecutionBatch& batch);

  int worker_count() const { return pool_.active_workers(); }
  int busy_count() const { return pool_.BusyCount(); }
  size_t queue_depth() const { return pool_.QueueDepth(); }
  size_t queue_capacity() const { return pool_.queue_capacity(); }
  int64_t threads_spawned() const { return pool_.threads_spawned(); }
  int64_t workers_abandoned() const { return pool_.abandoned_count(); }
  int64_t dispatched_count() const { return dispatched_.load(std::memory_order_relaxed); }
  int64_t completed_count() const { return completed_.load(std::memory_order_relaxed); }
  int64_t rejected_count() const { return rejected_.load(std::memory_order_relaxed); }
  int64_t batches_submitted() const { return batches_.load(std::memory_order_relaxed); }

 private:
  // Worker body for one batch task: claim → run → close out, serially; then
  // stamps finished_at and wakes the scheduler if the batch needs it before
  // its planned wake.
  void RunBatch(DispatchBatch* slab);
  // Runs one claimed execution and publishes its result (done = true last).
  // Returns the checker's interval for a run that passed (or was not ready
  // or skipped), 0 for one that failed or crashed: the scheduler must see
  // that one at once.
  DurationNs RunOne(Execution& exec);

  Clock& clock_;
  WorkerPool pool_;
  std::function<void()> wake_scheduler_;
  // The scheduler's planned wake; INT64_MAX ("awake") while it runs a pass.
  std::atomic<TimeNs> planned_wake_{INT64_MAX};
  Histogram* queue_delay_hist_;  // wdg.driver.queue_delay_ns (shared across shards)
  Gauge* workers_gauge_;         // wdg.driver[.shard.<i>].pool.workers

  // Slab freelist — scheduler-thread-only (plus Stop/dtor after the scheduler
  // has been joined). Slabs are owned by all_slabs_ and freed only at
  // destruction.
  std::vector<std::unique_ptr<DispatchBatch>> all_slabs_;
  std::vector<DispatchBatch*> free_slabs_;
  std::vector<DispatchBatch*> retiring_;  // sched_refs == 0, worker not yet released

  std::atomic<int64_t> dispatched_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<uint64_t> sample_counter_{0};  // 1-in-16 queue-delay sampling
};

}  // namespace wdg
