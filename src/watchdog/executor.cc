#include "src/watchdog/executor.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace wdg {

namespace {

bool CasState(Execution& exec, ExecState from, ExecState to) {
  uint8_t expected = static_cast<uint8_t>(from);
  return exec.state.compare_exchange_strong(expected, static_cast<uint8_t>(to),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
}

}  // namespace

CheckerExecutor::CheckerExecutor(Clock& clock, MetricsRegistry& metrics,
                                 Options options,
                                 const std::string& workers_gauge_name)
    : clock_(clock),
      pool_(WorkerPool::Options{options.workers, options.queue_capacity}),
      queue_delay_hist_(metrics.GetHistogram("wdg.driver.queue_delay_ns")),
      workers_gauge_(metrics.GetGauge(workers_gauge_name)) {
  workers_gauge_->Set(static_cast<double>(options.workers));
  free_slabs_.reserve(64);
  retiring_.reserve(64);
}

CheckerExecutor::~CheckerExecutor() {
  Stop();
  // Workers (including abandoned ones) are joined; slabs can finally go.
  all_slabs_.clear();
}

void CheckerExecutor::Start() { pool_.Start(); }

void CheckerExecutor::Stop() { pool_.Stop(); }

void CheckerExecutor::SetWakeScheduler(std::function<void()> wake) {
  wake_scheduler_ = std::move(wake);
}

void CheckerExecutor::SchedulerAwake() {
  planned_wake_.store(INT64_MAX, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void CheckerExecutor::SchedulerSleepsUntil(TimeNs wake) {
  planned_wake_.store(wake, std::memory_order_relaxed);
}

DispatchBatch* CheckerExecutor::AcquireBatch(size_t capacity) {
  // Sweep slabs whose scheduler refs drained earlier but whose worker had not
  // yet released the storage. Swap-remove keeps the sweep O(retiring).
  for (size_t i = 0; i < retiring_.size();) {
    if (retiring_[i]->worker_released.load(std::memory_order_acquire)) {
      free_slabs_.push_back(retiring_[i]);
      retiring_[i] = retiring_.back();
      retiring_.pop_back();
    } else {
      ++i;
    }
  }
  DispatchBatch* slab = nullptr;
  if (!free_slabs_.empty()) {
    slab = free_slabs_.back();
    free_slabs_.pop_back();
  } else {
    auto owned = std::make_unique<DispatchBatch>();
    slab = owned.get();
    all_slabs_.push_back(std::move(owned));
  }
  if (slab->capacity < capacity) {
    slab->storage = std::make_unique<Execution[]>(capacity);
    slab->capacity = capacity;
    for (size_t i = 0; i < capacity; ++i) {
      slab->storage[i].slab = slab;
      slab->storage[i].batch = &slab->control;
    }
  }
  slab->count = 0;
  slab->sched_refs = 0;
  return slab;
}

void CheckerExecutor::ReleaseExecution(Execution& exec) {
  DispatchBatch* slab = exec.slab;
  if (--slab->sched_refs == 0) {
    retiring_.push_back(slab);
  }
}

void CheckerExecutor::RecycleUnsubmitted(DispatchBatch* slab) {
  free_slabs_.push_back(slab);
}

bool CheckerExecutor::SubmitBatch(DispatchBatch* slab) {
  const size_t n = slab->count;
  if (n == 0) {
    RecycleUnsubmitted(slab);
    return true;
  }
  const TimeNs enqueued = clock_.NowNs();
  for (size_t i = 0; i < n; ++i) {
    slab->storage[i].enqueue_time = enqueued;
  }
  slab->control.abandoned.store(false, std::memory_order_relaxed);
  slab->worker_released.store(false, std::memory_order_relaxed);
  // The queue mutex inside TrySubmitTicketed publishes all the plain stores
  // above to whichever worker pops the task. The 2-pointer capture fits
  // std::function's inline buffer — no allocation.
  slab->control.ticket = pool_.ReserveTicket();
  if (!pool_.TrySubmitTicketed(slab->control.ticket,
                               [this, slab] { RunBatch(slab); })) {
    // Queue full: every execution in the batch is a rejected (late) check.
    slab->worker_released.store(true, std::memory_order_relaxed);
    rejected_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
    return false;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool CheckerExecutor::AbandonBatch(ExecutionBatch& batch) {
  batch.abandoned.store(true, std::memory_order_release);
  return pool_.AbandonIfRunning(batch.ticket);
}

void CheckerExecutor::RunBatch(DispatchBatch* slab) {
  // A failure, crash or abandon needs the scheduler at once; passing runs
  // need it by their next launch, which counts from the batch's finish.
  bool urgent = false;
  DurationNs next_interval = INT64_MAX;  // shortest interval among passing runs
  for (size_t i = 0; i < slab->count; ++i) {
    Execution& exec = slab->storage[i];
    if (slab->control.abandoned.load(std::memory_order_acquire)) {
      // The scheduler abandoned this batch while a previous execution hung;
      // the remaining siblings were cancelled for re-dispatch. This thread is
      // already parked off the pool — just stop doing work. The wake lets
      // the scheduler drain the hung execution and resume its checker.
      urgent = true;
      break;
    }
    if (!CasState(exec, ExecState::kPending, ExecState::kRunning)) {
      continue;  // cancelled by the scheduler (or defensively: never ours)
    }
    const DurationNs interval = RunOne(exec);
    if (interval == 0) {
      urgent = true;
    } else {
      next_interval = std::min(next_interval, interval);
    }
    const bool completed_cleanly = CasState(exec, ExecState::kRunning, ExecState::kDone);
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (!completed_cleanly) {
      // The scheduler claimed this execution as hung (we finished barely past
      // the deadline) and abandoned the batch ticket: the pool has respawned
      // past this thread, so it must not run the remaining executions.
      urgent = true;
      break;
    }
  }
  // Last touch of the slab: after this (release) the scheduler may read
  // finished_at, and recycle the slab once its own references drain.
  // Dispatches wake nobody: the scheduler never sleeps past launch + deadline
  // for an undispatched execution, and from there it reads the dispatch time
  // and arms the exact deadline. A finished batch wakes it only when it is
  // needed before the planned wake (see SchedulerAwake for the handshake).
  const TimeNs finished_at = clock_.NowNs();
  slab->finished_at = finished_at;
  slab->worker_released.store(true, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  TimeNs wake_by = INT64_MAX;
  if (urgent) {
    wake_by = finished_at;
  } else if (next_interval != INT64_MAX) {
    wake_by = finished_at + next_interval;
  }
  if (wake_by < planned_wake_.load(std::memory_order_relaxed) && wake_scheduler_) {
    wake_scheduler_();
  }
}

DurationNs CheckerExecutor::RunOne(Execution& exec) {
  const TimeNs dispatched_at = clock_.NowNs();
  exec.dispatch_time.store(dispatched_at, std::memory_order_release);
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  // Sampling 1-in-16 keeps the shared histogram's mutex off the hot path; the
  // reservoir is itself a sampler, so percentiles are preserved.
  if ((sample_counter_.fetch_add(1, std::memory_order_relaxed) & 0xF) == 0) {
    queue_delay_hist_->Record(static_cast<double>(dispatched_at - exec.enqueue_time));
  }

  CheckResult result;
  bool crashed = false;
  std::string what;
  try {
    result = exec.checker->Check();
  } catch (const std::exception& e) {
    crashed = true;
    what = e.what();
  } catch (...) {
    crashed = true;
    what = "non-standard exception";
  }

  const TimeNs completed_at = clock_.NowNs();
  // Read before `done` is published: from then on the scheduler owns the
  // result and may move it out.
  const DurationNs next_interval = crashed || result.outcome == CheckOutcome::kFail
                                       ? 0
                                       : exec.checker->options().interval;
  exec.result = std::move(result);
  exec.crashed = crashed;
  exec.crash_what = std::move(what);
  exec.complete_time = completed_at;
  exec.done.store(true, std::memory_order_release);
  return next_interval;
}

}  // namespace wdg
