#include "src/watchdog/driver.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <functional>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/supervisor/wdog_client.h"

namespace wdg {

namespace {
// Retry delay after the executor queue rejected a submission (backpressure),
// and for a cancelled execution that a reap found left behind.
constexpr DurationNs kBackpressureRetry = Ms(2);
constexpr int kMaxShards = 64;
// Upper bound on one scheduler sleep. The scheduler normally wakes exactly at
// the next deadline (or earlier, on dispatch/completion events); this only
// caps how long a lost wake could go unnoticed.
constexpr DurationNs kMaxSleep = Ms(250);

bool CasState(Execution& exec, ExecState from, ExecState to) {
  uint8_t expected = static_cast<uint8_t>(from);
  return exec.state.compare_exchange_strong(expected, static_cast<uint8_t>(to),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
}

// The name index's stored hash: std::hash of the name, folded to 32 bits.
uint32_t FoldHash(size_t name_hash) {
  return static_cast<uint32_t>(static_cast<uint64_t>(name_hash) ^
                               (static_cast<uint64_t>(name_hash) >> 32));
}
}  // namespace

std::map<std::string, double> DriverMetricsSnapshot::ToMap() const {
  std::map<std::string, double> map = {
      {"wdg.driver.pool.workers", static_cast<double>(pool_workers)},
      {"wdg.driver.pool.busy", static_cast<double>(busy_workers)},
      {"wdg.driver.pool.utilization", pool_utilization},
      {"wdg.driver.queue.depth", static_cast<double>(queue_depth)},
      {"wdg.driver.queue.capacity", static_cast<double>(queue_capacity)},
      {"wdg.driver.executions.dispatched", static_cast<double>(executions_dispatched)},
      {"wdg.driver.executions.completed", static_cast<double>(executions_completed)},
      {"wdg.driver.timeouts", static_cast<double>(timeouts)},
      {"wdg.driver.crashes", static_cast<double>(crashes)},
      {"wdg.driver.workers.abandoned", static_cast<double>(workers_abandoned)},
      {"wdg.driver.threads.spawned", static_cast<double>(threads_spawned)},
      {"wdg.driver.queue.rejections", static_cast<double>(queue_rejections)},
      {"wdg.driver.shards", static_cast<double>(shards)},
      {"wdg.driver.skipped_unchanged", static_cast<double>(skipped_unchanged)},
      {"wdg.driver.batches", static_cast<double>(batches_dispatched)},
      {"wdg.driver.scheduler_passes", static_cast<double>(scheduler_passes)},
      {"wdg.driver.wheel.entries", static_cast<double>(wheel_entries)},
      {"wdg.driver.queue_delay.mean_ns", queue_delay_mean_ns},
      {"wdg.driver.queue_delay.p99_ns", queue_delay_p99_ns},
      {"wdg.driver.scheduler_lag_ns", scheduler_lag_ns},
      {"wdg.driver.deadline.priors_active", static_cast<double>(deadline_priors_active)},
      {"wdg.driver.supervised", supervised ? 1.0 : 0.0},
      {"wdg.driver.supervisor.kicks", static_cast<double>(supervisor_kicks)},
      {"wdg.driver.supervisor.kicks_withheld",
       static_cast<double>(supervisor_kicks_withheld)},
  };
  // Per-shard gauges only when actually sharded, so the single-scheduler map
  // stays free of redundant copies of the aggregate.
  if (shard_views.size() > 1) {
    for (size_t i = 0; i < shard_views.size(); ++i) {
      const ShardView& view = shard_views[i];
      const std::string prefix = StrFormat("wdg.driver.shard.%d.", static_cast<int>(i));
      map[prefix + "pool.workers"] = static_cast<double>(view.workers);
      map[prefix + "pool.busy"] = static_cast<double>(view.busy);
      map[prefix + "queue.depth"] = static_cast<double>(view.queue_depth);
      map[prefix + "dispatched"] = static_cast<double>(view.dispatched);
      map[prefix + "completed"] = static_cast<double>(view.completed);
      map[prefix + "wheel.entries"] = static_cast<double>(view.wheel_entries);
      map[prefix + "skipped_unchanged"] = static_cast<double>(view.skipped_unchanged);
      map[prefix + "workers.abandoned"] = static_cast<double>(view.workers_abandoned);
    }
  }
  for (const auto& [name, deadline_ns] : checker_deadline_ns) {
    map["wdg.driver.deadline." + name + "_ns"] = deadline_ns;
  }
  return map;
}

WatchdogDriver::WatchdogDriver(Clock& clock, Options options)
    : clock_(clock), options_(std::move(options)) {
  options_.shards = std::clamp(options_.shards, 1, kMaxShards);
  options_.dispatch_batch = std::max(1, options_.dispatch_batch);
  // A pool of zero workers would queue every batch forever with no deadline
  // ever starting — checking silently off, not an alarm.
  options_.executor.workers = std::max(1, options_.executor.workers);
  if (options_.wheel_tick <= 0) {
    options_.wheel_tick = Ms(1);
  }
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  scheduler_lag_gauge_ = metrics_->GetGauge("wdg.driver.scheduler_lag_ns");
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    const std::string gauge_name =
        options_.shards == 1
            ? "wdg.driver.pool.workers"
            : StrFormat("wdg.driver.shard.%d.pool.workers", s);
    shard->executor = std::make_unique<CheckerExecutor>(clock_, *metrics_,
                                                        options_.executor, gauge_name);
    shards_.push_back(std::move(shard));
  }
}

WatchdogDriver::~WatchdogDriver() { (void)Stop(); }

int WatchdogDriver::ShardFor(const Checker& checker, size_t name_hash) const {
  const int shards = static_cast<int>(shards_.size());
  const int affinity = checker.options().shard_affinity;
  if (affinity >= 0) {
    return affinity % shards;
  }
  return static_cast<int>(name_hash % static_cast<size_t>(shards));
}

size_t WatchdogDriver::ProbeNameLocked(const std::string& name, size_t name_hash) const {
  const uint32_t folded = FoldHash(name_hash);
  const size_t mask = name_index_.size() - 1;
  for (size_t i = folded & mask;; i = (i + 1) & mask) {
    const NameEntry& entry = name_index_[i];
    if (entry.slot == kNoSlot ||
        (entry.hash == folded && slots_[entry.slot].checker->name() == name)) {
      return i;
    }
  }
}

void WatchdogDriver::GrowNameIndexLocked() {
  std::vector<NameEntry> old(std::max<size_t>(16, name_index_.size() * 2));
  old.swap(name_index_);
  const size_t mask = name_index_.size() - 1;
  for (const NameEntry& entry : old) {
    if (entry.slot == kNoSlot) {
      continue;
    }
    size_t i = entry.hash & mask;
    while (name_index_[i].slot != kNoSlot) {
      i = (i + 1) & mask;
    }
    name_index_[i] = entry;
  }
}

std::optional<size_t> WatchdogDriver::FindSlotLocked(const std::string& checker_name) const {
  if (name_index_.empty()) {
    return std::nullopt;
  }
  const NameEntry& entry =
      name_index_[ProbeNameLocked(checker_name, std::hash<std::string>{}(checker_name))];
  if (entry.slot == kNoSlot) {
    return std::nullopt;
  }
  return entry.slot;
}

Checker* WatchdogDriver::AddChecker(std::unique_ptr<Checker> checker) {
  assert(!running() && "checkers must be registered before Start()");
  Checker* borrowed = checker.get();
  return TryAddChecker(std::move(checker)).ok() ? borrowed : nullptr;
}

Status WatchdogDriver::TryAddChecker(std::unique_ptr<Checker> checker) {
  if (checker == nullptr) {
    return InvalidArgumentError("TryAddChecker: null checker");
  }
  if (running()) {
    return FailedPreconditionError(
        StrFormat("cannot register checker '%s': driver already running",
                  checker->name().c_str()));
  }
  // The one hash of this registration: the duplicate probe, the insert and
  // the shard all use it.
  const size_t name_hash = std::hash<std::string>{}(checker->name());
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  if ((slots_.size() + 1) * 2 > name_index_.size()) {
    GrowNameIndexLocked();
  }
  NameEntry& entry = name_index_[ProbeNameLocked(checker->name(), name_hash)];
  if (entry.slot != kNoSlot) {
    return AlreadyExistsError(
        StrFormat("checker '%s' is already registered", checker->name().c_str()));
  }
  const size_t index = slots_.size();
  const auto shard = static_cast<uint16_t>(ShardFor(*checker, name_hash));
  slots_.emplace_back(std::move(checker), shard);
  shards_[shard]->members.push_back(index);
  entry = NameEntry{FoldHash(name_hash), static_cast<uint32_t>(index)};
  return Status::Ok();
}

Status WatchdogDriver::SetValidationProbe(std::function<Status()> probe,
                                          DurationNs timeout) {
  if (running()) {
    return FailedPreconditionError(
        "cannot install validation probe: driver already running");
  }
  if (timeout <= 0) {
    return InvalidArgumentError("validation probe timeout must be > 0");
  }
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  options_.validation_probe = std::move(probe);
  options_.validation_timeout = timeout;
  return Status::Ok();
}

void WatchdogDriver::AddListener(FailureListener* listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.push_back(listener);
}

void WatchdogDriver::AddRecoveryAction(const std::string& component_prefix,
                                       RecoveryAction* action) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  recovery_actions_.emplace_back(component_prefix, action);
}

Status WatchdogDriver::SetSupervised(DriverSupervision supervision) {
  if (running_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("cannot enter supervised mode while running");
  }
  // A null client returns the driver to unsupervised mode.
  supervision_ = std::move(supervision);
  return Status::Ok();
}

Status WatchdogDriver::Start() {
  if (running_.exchange(true)) {
    return FailedPreconditionError("watchdog driver is already running");
  }
  if (stopped_) {
    running_.store(false, std::memory_order_release);
    return FailedPreconditionError("watchdog driver cannot be restarted after Stop");
  }
  if (supervision_.client != nullptr) {
    const Status handshake = supervision_.client->Subscribe(
        supervision_.name, supervision_.kick_deadline, supervision_.handshake_timeout);
    if (!handshake.ok()) {
      // Refuse to run unwatched when the caller asked for supervision.
      running_.store(false, std::memory_order_release);
      return handshake;
    }
    last_supervisor_kick_ = clock_.NowNs();
    completed_at_last_kick_.assign(shards_.size(), 0);
    for (size_t s = 0; s < shards_.size(); ++s) {
      completed_at_last_kick_[s] = shards_[s]->executor->completed_count();
    }
  }
  {
    std::lock_guard<std::mutex> reg_lock(reg_mu_);
    const TimeNs now = clock_.NowNs();
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.wheel = std::make_unique<TimerWheel>(now, options_.wheel_tick);
      for (const size_t slot_index : shard.members) {
        Slot& slot = slots_[slot_index];
        if (options_.per_checker_metrics) {
          slot.latency_hist = metrics_->GetHistogram(
              "wdg.driver.checker." + slot.checker->name() + ".latency_ns");
        }
        // First pass immediately unless the checker asked for a staggered start.
        ScheduleLocked(shard, slot, slot_index,
                       now + slot.checker->options().initial_delay);
      }
    }
  }
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    shard->executor->SetWakeScheduler([shard] { shard->wake.Notify(); });
    shard->executor->Start();
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->scheduler = JoiningThread([this, s] { ShardLoop(s); });
  }
  return Status::Ok();
}

Status WatchdogDriver::Stop() {
  if (!running_.exchange(false)) {
    return FailedPreconditionError("watchdog driver is not running");
  }
  stopped_ = true;
  stop_.Request();
  for (auto& shard : shards_) {
    shard->wake.Notify();
  }
  for (auto& shard : shards_) {
    shard->scheduler.Join();
  }
  if (options_.release_on_stop) {
    options_.release_on_stop();
  }
  // Joins every pool worker, including abandoned ones (release_on_stop is
  // expected to have unblocked any injected hangs) and discards queued work.
  for (auto& shard : shards_) {
    shard->executor->Stop();
  }
  {
    const TimeNs now = clock_.NowNs();
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.mu);
      FinalReapShardLocked(shard, now);
    }
  }
  // Join validation-probe threads.
  std::vector<std::unique_ptr<ProbeRun>> probes;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    probes.swap(probe_drain_);
  }
  probes.clear();  // JoiningThread dtor joins
  if (supervision_.client != nullptr) {
    // Clean departure: a voluntary Stop must never walk the escalation
    // ladder. Errors are tolerated — the supervisor may already be gone.
    (void)supervision_.client->Unsubscribe(supervision_.handshake_timeout);
  }
  return Status::Ok();
}

void WatchdogDriver::ScheduleLocked(Shard& shard, Slot& slot, size_t slot_index,
                                    TimeNs when) {
  slot.next_run = when;
  // The new generation supersedes any older wheel entry for this slot; stale
  // entries are dropped at pop time (lazy deletion — no wheel scan needed).
  ++slot.sched_gen;
  const uint64_t payload = (static_cast<uint64_t>(slot_index) << 32) |
                           (slot.sched_gen & 0xffffffffULL);
  shard.wheel->Schedule(when, payload);
}

void WatchdogDriver::LaunchBatchLocked(Shard& shard, const std::vector<size_t>& launches,
                                       TimeNs now) {
  // Allocation-free in steady state: executions live in recycled slabs from
  // the shard executor's freelist, not in per-dispatch heap objects. The
  // scheduler takes one reference per execution (sched_refs, set before the
  // batch becomes runnable) and gives each back via ReleaseExecution when it
  // drops the pointer; the slab returns to the freelist when both the
  // scheduler refs and the worker's release have drained.
  const size_t batch_size = static_cast<size_t>(options_.dispatch_batch);
  for (size_t start = 0; start < launches.size(); start += batch_size) {
    const size_t end = std::min(launches.size(), start + batch_size);
    const size_t n = end - start;
    DispatchBatch* slab = shard.executor->AcquireBatch(batch_size);
    for (size_t i = 0; i < n; ++i) {
      Execution& exec = slab->storage[i];
      exec.checker = slots_[launches[start + i]].checker.get();
      exec.dispatch_time.store(0, std::memory_order_relaxed);
      exec.done.store(false, std::memory_order_relaxed);
      exec.state.store(static_cast<uint8_t>(ExecState::kPending),
                       std::memory_order_relaxed);
    }
    slab->count = n;
    slab->sched_refs = static_cast<int>(n);
    if (!shard.executor->SubmitBatch(slab)) {
      // Queue full: backpressure. The checks are late, never a new thread.
      shard.executor->RecycleUnsubmitted(slab);
      for (size_t i = start; i < end; ++i) {
        ScheduleLocked(shard, slots_[launches[i]], launches[i],
                       now + kBackpressureRetry);
      }
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      Slot& slot = slots_[launches[start + i]];
      ++slot.stats.runs;
      slot.running = &slab->storage[i];
      shard.inflight.push_back(launches[start + i]);
    }
  }
}

DurationNs WatchdogDriver::SlotDeadlineLocked(const Slot& slot) const {
  // The static-analysis prior is generated ≤ timeout; min() keeps that
  // invariant even for hand-built options.
  const CheckerOptions& opts = slot.checker->options();
  return opts.deadline_prior > 0 ? std::min(opts.deadline_prior, opts.timeout)
                                 : opts.timeout;
}

void WatchdogDriver::EmitLivenessSignature(Slot& slot, DurationNs deadline,
                                           std::vector<PendingFailure>& pending) {
  Checker& checker = *slot.checker;
  FailureSignature sig;
  sig.type = FailureType::kLivenessTimeout;
  sig.checker_name = checker.name();
  sig.location = checker.CurrentOp();  // the op the checker is blocked in
  if (sig.location.component.empty()) {
    sig.location.component = checker.component();
  }
  sig.code = StatusCode::kTimeout;
  sig.message = StrFormat("checker exceeded %lld ms deadline",
                          static_cast<long long>(deadline / kNsPerMs));
  pending.push_back(PendingFailure{std::move(sig), checker.type()});
}

bool WatchdogDriver::ShouldSkipUnchangedLocked(Slot& slot) {
  const Checker& checker = *slot.checker;
  const CheckContext* context = checker.subscription_context();
  if (context == nullptr || checker.subscription_slots().empty()) {
    return false;
  }
  // Sum of per-key epochs plus the readiness bit: any subscribed publish (or
  // a readiness flip) changes the fingerprint. Epochs are monotone, so a
  // matching fingerprint proves *no* subscribed key advanced since the last
  // launch decision.
  uint64_t fingerprint = context->ready() ? 1 : 0;
  for (const uint32_t key_slot : checker.subscription_slots()) {
    fingerprint += context->KeyEpoch(key_slot);
  }
  if (slot.sub_armed && fingerprint == slot.sub_fingerprint) {
    return true;
  }
  slot.sub_fingerprint = fingerprint;
  slot.sub_armed = true;
  return false;
}

void WatchdogDriver::CancelBatchSiblingsLocked(Shard& shard, const ExecutionBatch* batch,
                                               TimeNs now) {
  // The hung execution's batch is abandoned: its not-yet-started siblings
  // would otherwise wait out the hang on the parked worker. Pull every
  // still-pending sibling back (kPending→kCancelled — the CAS loses cleanly
  // if the worker claimed it first) and reschedule it at once: this pass's
  // launch step re-dispatches it to the replacement worker. The launch never
  // happened, so it is not a run. The reap step drops the stale inflight
  // entries before the launch step, so no slot appears twice.
  for (const size_t slot_index : shard.inflight) {
    Slot& slot = slots_[slot_index];
    if (slot.running == nullptr || slot.running->batch != batch) {
      continue;
    }
    if (CasState(*slot.running, ExecState::kPending, ExecState::kCancelled)) {
      --slot.stats.runs;
      shard.executor->ReleaseExecution(*slot.running);
      slot.running = nullptr;
      ScheduleLocked(shard, slot, slot_index, now);
    }
  }
}

void WatchdogDriver::ReapLocked(Shard& shard, Slot& slot, size_t slot_index, TimeNs now,
                                std::vector<PendingFailure>& pending) {
  // Drain abandoned executions that have finally finished (their results are
  // stale and discarded; the liveness signature was already emitted).
  const bool was_suspended = !slot.drain.empty();
  std::erase_if(slot.drain, [&shard](Execution* exec) {
    if (!exec->done.load(std::memory_order_acquire)) {
      return false;
    }
    shard.executor->ReleaseExecution(*exec);
    return true;
  });

  if (slot.running == nullptr) {
    if (was_suspended && slot.drain.empty() && slot.enabled) {
      // The stuck execution drained: resume the suspended checker.
      ScheduleLocked(shard, slot, slot_index, std::max(slot.next_run, now));
    }
    return;
  }

  Execution& exec = *slot.running;
  Checker& checker = *slot.checker;
  if (static_cast<ExecState>(exec.state.load(std::memory_order_acquire)) ==
      ExecState::kCancelled) {
    // Defensive: a sibling cancelled out of an abandoned batch is normally
    // reclaimed by CancelBatchSiblingsLocked itself; reclaim here too in case
    // a future path leaves one behind. Never dispatched → not a run.
    --slot.stats.runs;
    shard.executor->ReleaseExecution(exec);
    slot.running = nullptr;
    ScheduleLocked(shard, slot, slot_index, now + kBackpressureRetry);
    return;
  }
  bool done = exec.done.load(std::memory_order_acquire);

  if (!done) {
    // Still running: enforce the deadline, counted from dispatch (queue wait
    // is backpressure, not a hang — it has its own histogram).
    const DurationNs deadline = SlotDeadlineLocked(slot);
    const TimeNs dispatched = exec.dispatch_time.load(std::memory_order_acquire);
    if (dispatched == 0 || now - dispatched < deadline) {
      return;
    }
    if (CasState(exec, ExecState::kRunning, ExecState::kAbandoned)) {
      // Isolation (§3.2): the worker stays parked on the hung op, the pool
      // already spawned its replacement, and the hang *is* the detection.
      // Winning the CAS makes this scheduler the sole owner of the abandon:
      // the worker's close-out CAS now fails, so it stops after the hung
      // execution even if it eventually unblocks.
      shard.executor->AbandonBatch(*exec.batch);
      ++slot.stats.timeouts;
      timeouts_total_.fetch_add(1, std::memory_order_relaxed);
      EmitLivenessSignature(slot, deadline, pending);
      const ExecutionBatch* batch = exec.batch;
      // Transfer (not drop) the scheduler's reference into the drain list;
      // it is released when the hung execution finally publishes `done`.
      slot.drain.push_back(slot.running);
      slot.running = nullptr;
      slot.next_run = now + checker.options().interval;  // resumes after drain
      CancelBatchSiblingsLocked(shard, batch, now);
      return;
    }
    // Abandon lost the race with completion: fall through and reap the
    // (barely late) result normally.
    done = exec.done.load(std::memory_order_acquire);
    if (!done) {
      return;  // completion is mid-publish; its deadline is past, so the next pass reaps it
    }
  }

  // `done` was loaded with acquire ordering: every plain field the worker
  // published before the release store is visible here.
  CheckResult result = std::move(exec.result);
  const bool crashed = exec.crashed;
  std::string what = std::move(exec.crash_what);
  const TimeNs complete_time = exec.complete_time;
  const TimeNs dispatched = exec.dispatch_time.load(std::memory_order_acquire);
  const DurationNs latency = complete_time - dispatched;
  slot.stats.total_latency += latency;
  slot.stats.total_queue_delay += dispatched - exec.enqueue_time;
  if (slot.latency_hist != nullptr) {
    slot.latency_hist->Record(static_cast<double>(latency));
  }
  // From the batch's finish once the batch is over, so checkers launched
  // together are due together again; from the run's own completion while
  // its batch is still running (a later sibling is slow or hung). Never
  // from `now`: a passing batch does not wake the scheduler, so the reap may
  // come later than the run ended. Either base is at or after the run's
  // end, so no run starts earlier than `interval` after its previous one.
  const DispatchBatch& slab = *exec.slab;
  const TimeNs base = slab.worker_released.load(std::memory_order_acquire)
                          ? slab.finished_at
                          : complete_time;
  shard.executor->ReleaseExecution(exec);
  slot.running = nullptr;
  ScheduleLocked(shard, slot, slot_index, base + checker.options().interval);

  if (crashed) {
    // Isolation (§3.2): the checker blew up, the watchdog did not. A crash
    // while exercising mimicked logic is itself a strong failure signal.
    ++slot.stats.crashes;
    crashes_total_.fetch_add(1, std::memory_order_relaxed);
    FailureSignature sig;
    sig.type = FailureType::kCheckerCrash;
    sig.checker_name = checker.name();
    sig.location = checker.CurrentOp();
    if (sig.location.component.empty()) {
      sig.location.component = checker.component();
    }
    sig.code = StatusCode::kInternal;
    sig.message = StrFormat("checker crashed: %s", what.c_str());
    pending.push_back(PendingFailure{std::move(sig), checker.type()});
    return;
  }
  switch (result.outcome) {
    case CheckOutcome::kPass:
      ++slot.stats.passes;
      break;
    case CheckOutcome::kContextNotReady:
      ++slot.stats.context_not_ready;
      break;
    case CheckOutcome::kSkipped:
      break;
    case CheckOutcome::kFail:
      ++slot.stats.fails;
      pending.push_back(PendingFailure{std::move(*result.signature), checker.type()});
      break;
  }
}

void WatchdogDriver::FinalReapShardLocked(Shard& shard, TimeNs now) {
  // Every pool worker has been joined: claimed executions are complete,
  // queued / cancelled ones never ran. Fold completed results into the stats
  // so a healthy checker ends with runs == passes; signatures surfacing this
  // late are dropped (the driver is stopping — nobody is listening for them).
  for (const size_t slot_index : shard.members) {
    Slot& slot = slots_[slot_index];
    // Drained executions are stale by definition (already signatured); give
    // their scheduler references back so the slabs can retire.
    for (Execution* drained : slot.drain) {
      shard.executor->ReleaseExecution(*drained);
    }
    slot.drain.clear();
    if (slot.running == nullptr) {
      continue;
    }
    Execution& exec = *slot.running;
    const bool done = exec.done.load(std::memory_order_acquire);
    if (!done) {
      // Never dispatched (discarded from the queue at Stop, or cancelled out
      // of an abandoned batch): un-count the run.
      --slot.stats.runs;
      shard.executor->ReleaseExecution(exec);
      slot.running = nullptr;
      continue;
    }
    CheckResult result = std::move(exec.result);
    const bool crashed = exec.crashed;
    const TimeNs complete_time = exec.complete_time;
    const TimeNs dispatched = exec.dispatch_time.load(std::memory_order_acquire);
    slot.stats.total_latency += complete_time - dispatched;
    slot.stats.total_queue_delay += dispatched - exec.enqueue_time;
    if (crashed) {
      ++slot.stats.crashes;
    } else if (result.outcome == CheckOutcome::kPass) {
      ++slot.stats.passes;
    } else if (result.outcome == CheckOutcome::kContextNotReady) {
      ++slot.stats.context_not_ready;
    } else if (result.outcome == CheckOutcome::kFail) {
      ++slot.stats.fails;
    }
    shard.executor->ReleaseExecution(exec);
    slot.running = nullptr;
  }
  shard.inflight.clear();
  (void)now;
}

void WatchdogDriver::ShardLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  while (!stop_.Requested()) {
    shard.executor->SchedulerAwake();  // finished batches wake us until we sleep
    shard.passes.fetch_add(1, std::memory_order_relaxed);
    const TimeNs now = clock_.NowNs();
    if (shard.planned_wake != 0 && now > shard.planned_wake) {
      scheduler_lag_gauge_->Set(static_cast<double>(now - shard.planned_wake));
    }
    std::vector<PendingFailure> pending;
    TimeNs next_deadline = now + kMaxSleep;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      // (1) Reap in-flight executions: completions, hang deadlines, drains.
      // Then drop the slots with nothing left in flight, including batch
      // siblings an abandon cancelled, before step 2 may launch them again.
      for (const size_t slot_index : shard.inflight) {
        ReapLocked(shard, slots_[slot_index], slot_index, now, pending);
      }
      std::erase_if(shard.inflight, [this](size_t slot_index) {
        const Slot& slot = slots_[slot_index];
        return slot.running == nullptr && slot.drain.empty();
      });
      // (2) Pop everything due off the wheel; filter stale generations
      // (lazy deletion), disabled and suspended slots, and subscription
      // skips; launch the rest in dispatch_batch-sized batches.
      shard.due.clear();
      shard.wheel->PopDue(now, &shard.due);
      shard.launch_scratch.clear();
      for (const uint64_t payload : shard.due) {
        const size_t slot_index = static_cast<size_t>(payload >> 32);
        const uint32_t gen = static_cast<uint32_t>(payload);
        Slot& slot = slots_[slot_index];
        if (gen != slot.sched_gen) {
          continue;  // superseded by a newer schedule for this slot
        }
        if (!slot.enabled || slot.running != nullptr || !slot.drain.empty()) {
          continue;  // disabled slots reschedule on re-enable; suspended on drain
        }
        if (ShouldSkipUnchangedLocked(slot)) {
          // No subscribed context key advanced since the last launch: the
          // component is dormant, the run would be a no-op. Skip straight to
          // the next interval.
          ++slot.stats.skipped_unchanged;
          shard.skipped_unchanged.fetch_add(1, std::memory_order_relaxed);
          ScheduleLocked(shard, slot, slot_index,
                         now + slot.checker->options().interval);
          continue;
        }
        shard.launch_scratch.push_back(slot_index);
      }
      LaunchBatchLocked(shard, shard.launch_scratch, now);
      // (3) Sleep until the earliest of: next launch, next hang deadline.
      if (const auto next_event = shard.wheel->NextEventTime()) {
        next_deadline = std::min(next_deadline, *next_event);
      }
      for (const size_t slot_index : shard.inflight) {
        Slot& slot = slots_[slot_index];
        if (slot.running != nullptr) {
          // Not dispatched yet: it cannot be dispatched before `now`, so its
          // deadline is no earlier than now + deadline. Waking then, the
          // scheduler reads the dispatch time and arms the exact deadline;
          // dispatches need not wake it.
          const TimeNs dispatched =
              slot.running->dispatch_time.load(std::memory_order_acquire);
          next_deadline = std::min(next_deadline, (dispatched != 0 ? dispatched : now) +
                                                      SlotDeadlineLocked(slot));
          // The run was not done at the reap, so it ends no earlier than now
          // and is due again no earlier than now + interval. Waking then
          // reaps a finished batch without a notify from its worker, and the
          // finished runs of a batch that is still going (a later sibling is
          // slow or hung) in time for their cadence.
          next_deadline = std::min(next_deadline, now + slot.checker->options().interval);
        }
      }
    }
    for (PendingFailure& failure : pending) {
      HandleFailure(std::move(failure.signature), failure.checker_type, now, shard);
    }
    const TimeNs before_sleep = clock_.NowNs();
    TimeNs wake_deadline = next_deadline;
    if (shard_index == 0 && supervision_.client != nullptr) {
      MaybeKickSupervisor(before_sleep);
      // Never sleep past the next kick due time — an idle wheel must not
      // read as a dead process.
      wake_deadline =
          std::min(wake_deadline, last_supervisor_kick_ + supervision_.kick_interval);
    }
    shard.planned_wake = wake_deadline;
    shard.executor->SchedulerSleepsUntil(wake_deadline);
    if (wake_deadline > before_sleep) {
      shard.wake.WaitFor(wake_deadline - before_sleep);
    }
  }
}

void WatchdogDriver::MaybeKickSupervisor(TimeNs now) {
  // Runs on shard 0's scheduler thread only; last_supervisor_kick_ and
  // completed_at_last_kick_ are its private state once the driver runs.
  if (now - last_supervisor_kick_ < supervision_.kick_interval) {
    return;
  }
  // Liveness proof. Reaching this line proves shard 0's scheduler pass ran
  // (its wheel is advancing); every shard's executor must additionally have
  // either completed work since the last kick or be fully idle. Work in
  // flight with zero completions anywhere is a wedged pool — withhold the
  // kick and let wdogd see silence instead of a healthy heartbeat from a
  // sick process.
  bool live = true;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const int64_t completed = shards_[s]->executor->completed_count();
    const int64_t dispatched = shards_[s]->executor->dispatched_count();
    if (!(completed > completed_at_last_kick_[s] || dispatched == completed)) {
      live = false;
      break;
    }
  }
  if (!live) {
    supervisor_kicks_withheld_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Advance the window even if the write fails: a dead supervisor pipe must
  // not turn the scheduler into a busy loop of retries.
  last_supervisor_kick_ = now;
  for (size_t s = 0; s < shards_.size(); ++s) {
    completed_at_last_kick_[s] = shards_[s]->executor->completed_count();
  }
  if (supervision_.client->Kick().ok()) {
    supervisor_kicks_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool WatchdogDriver::RunValidationProbe() {
  // Returns true iff client impact is confirmed. A probe that itself hangs or
  // errors confirms impact; a clean probe means the main program absorbed the
  // fault (§5.1 "superfluous detection").
  auto run = std::make_unique<ProbeRun>();
  ProbeRun* raw = run.get();
  auto probe = options_.validation_probe;
  run->thread = JoiningThread([raw, probe] {
    Status status = Status::Ok();
    try {
      status = probe();
    } catch (...) {
      status = InternalError("validation probe crashed");
    }
    std::lock_guard<std::mutex> probe_lock(raw->mu);
    raw->failed = !status.ok();
    raw->done = true;
  });
  const TimeNs deadline = clock_.NowNs() + options_.validation_timeout;
  bool done = false;
  bool failed = false;
  while (clock_.NowNs() < deadline) {
    {
      std::lock_guard<std::mutex> probe_lock(raw->mu);
      if (raw->done) {
        done = true;
        failed = raw->failed;
        break;
      }
    }
    clock_.SleepFor(Ms(1));
  }
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    // Garbage-collect finished probe validations (joins are instant: done).
    std::erase_if(probe_drain_, [](const std::unique_ptr<ProbeRun>& p) {
      std::lock_guard<std::mutex> probe_lock(p->mu);
      return p->done;
    });
    probe_drain_.push_back(std::move(run));
  }
  if (!done) {
    return true;  // probe hung → impact confirmed
  }
  return failed;
}

void WatchdogDriver::HandleFailure(FailureSignature sig, CheckerType type, TimeNs now,
                                   Shard& home) {
  // Called from `home`'s scheduler thread WITHOUT shard.mu held. Records go
  // into the home shard's lane: a checker lives on exactly one shard, so
  // per-lane dedup sees every signature the checker can produce.
  sig.detect_time = now;
  sig.checker_kind = CheckerTypeName(type);

  {
    std::lock_guard<std::mutex> lock(home.lane.mu);
    const std::string key = sig.DedupKey();
    const auto it = home.lane.dedup_last.find(key);
    if (it != home.lane.dedup_last.end() && now - it->second < options_.dedup_window) {
      deduped_.fetch_add(1);
      return;
    }
    home.lane.dedup_last[key] = now;
    // Prune entries outside the window so long campaigns with churning
    // signatures don't grow this map without bound.
    std::erase_if(home.lane.dedup_last, [&](const auto& entry) {
      return now - entry.second >= options_.dedup_window;
    });
  }

  // §5.1 escalation: mimic alarms get impact-checked via an end-to-end probe.
  bool suppress = false;
  if (type == CheckerType::kMimic && options_.validation_probe) {
    sig.validation_ran = true;
    sig.impact_confirmed = RunValidationProbe();
    if (!sig.impact_confirmed && options_.suppress_unconfirmed) {
      suppress = true;
      suppressed_.fetch_add(1);
    }
  }

  WDG_LOG(kInfo) << "watchdog failure: " << sig.ToString();
  {
    std::lock_guard<std::mutex> lock(home.lane.mu);
    home.lane.failures.push_back(sig);
  }
  if (suppress) {
    return;
  }
  std::vector<FailureListener*> listeners;
  std::vector<std::pair<std::string, RecoveryAction*>> actions;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    listeners = listeners_;
    actions = recovery_actions_;
  }
  for (FailureListener* listener : listeners) {
    listener->OnFailure(sig);
  }
  for (const auto& [prefix, action] : actions) {
    if (StrStartsWith(sig.location.component, prefix)) {
      action->Recover(sig);
    }
  }
}

std::vector<FailureSignature> WatchdogDriver::Failures() const {
  // Merge the per-shard lanes into one detect-time-ordered view. This is the
  // cold read path; recording stays shard-local and contention-free.
  std::vector<FailureSignature> all;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->lane.mu);
    all.insert(all.end(), shard->lane.failures.begin(), shard->lane.failures.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const FailureSignature& a, const FailureSignature& b) {
                     return a.detect_time < b.detect_time;
                   });
  return all;
}

std::optional<FailureSignature> WatchdogDriver::FirstFailure() const {
  std::optional<FailureSignature> first;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->lane.mu);
    for (const FailureSignature& sig : shard->lane.failures) {
      if (!first.has_value() || sig.detect_time < first->detect_time) {
        first = sig;
      }
    }
  }
  return first;
}

bool WatchdogDriver::WaitForFailure(DurationNs timeout,
                                    std::function<bool(const FailureSignature&)> pred) const {
  const TimeNs deadline = clock_.NowNs() + timeout;
  while (clock_.NowNs() < deadline) {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->lane.mu);
      for (const FailureSignature& sig : shard->lane.failures) {
        if (!pred || pred(sig)) {
          return true;
        }
      }
    }
    clock_.SleepFor(Ms(2));
  }
  return false;
}

Status WatchdogDriver::TrySetCheckerEnabled(const std::string& checker_name,
                                            bool enabled) {
  // reg_mu_ is held through the shard.mu section: slots_ is by-value, so a
  // concurrent registration's push_back could otherwise move the Slot out
  // from under us. Lock order reg_mu_ → shard.mu is the documented one.
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  const auto found = FindSlotLocked(checker_name);
  if (!found.has_value()) {
    return NotFoundError(
        StrFormat("no checker named '%s' is registered", checker_name.c_str()));
  }
  const size_t index = *found;
  Slot& slot = slots_[index];
  Shard& shard = *shards_[slot.shard];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    slot.enabled = enabled;
    if (enabled && running() && shard.wheel != nullptr && slot.running == nullptr &&
        slot.drain.empty()) {
      // Resume immediately (suspended slots resume when their drain clears).
      ScheduleLocked(shard, slot, index, clock_.NowNs());
    }
  }
  shard.wake.Notify();
  return Status::Ok();
}

bool WatchdogDriver::IsCheckerEnabled(const std::string& checker_name) const {
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  const auto found = FindSlotLocked(checker_name);
  if (!found.has_value()) {
    return false;
  }
  const Slot& slot = slots_[*found];
  std::lock_guard<std::mutex> lock(shards_[slot.shard]->mu);
  return slot.enabled;
}

CheckerStats WatchdogDriver::StatsFor(const std::string& checker_name) const {
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  const auto found = FindSlotLocked(checker_name);
  if (!found.has_value()) {
    return CheckerStats{};
  }
  const Slot& slot = slots_[*found];
  std::lock_guard<std::mutex> lock(shards_[slot.shard]->mu);
  return slot.stats;
}

int WatchdogDriver::checker_count() const {
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  return static_cast<int>(slots_.size());
}

std::vector<std::string> WatchdogDriver::CheckerNames() const {
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    names.push_back(slot.checker->name());
  }
  return names;
}

int WatchdogDriver::ShardOf(const std::string& checker_name) const {
  std::lock_guard<std::mutex> reg_lock(reg_mu_);
  const auto found = FindSlotLocked(checker_name);
  if (!found.has_value()) {
    return -1;
  }
  return static_cast<int>(slots_[*found].shard);
}

DriverMetricsSnapshot WatchdogDriver::DriverMetrics() const {
  DriverMetricsSnapshot snapshot;
  snapshot.shards = static_cast<int>(shards_.size());
  snapshot.shard_views.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const CheckerExecutor& executor = *shards_[s]->executor;
    DriverMetricsSnapshot::ShardView& view = snapshot.shard_views[s];
    view.workers = executor.worker_count();
    view.busy = executor.busy_count();
    view.queue_depth = executor.queue_depth();
    view.dispatched = executor.dispatched_count();
    view.completed = executor.completed_count();
    view.skipped_unchanged =
        shards_[s]->skipped_unchanged.load(std::memory_order_relaxed);
    view.workers_abandoned = executor.workers_abandoned();
    snapshot.pool_workers += view.workers;
    snapshot.busy_workers += view.busy;
    snapshot.queue_depth += view.queue_depth;
    snapshot.queue_capacity += executor.queue_capacity();
    snapshot.executions_dispatched += view.dispatched;
    snapshot.executions_completed += view.completed;
    snapshot.workers_abandoned += executor.workers_abandoned();
    snapshot.threads_spawned += executor.threads_spawned();
    snapshot.queue_rejections += executor.rejected_count();
    snapshot.batches_dispatched += executor.batches_submitted();
    snapshot.skipped_unchanged += view.skipped_unchanged;
    snapshot.scheduler_passes += shards_[s]->passes.load(std::memory_order_relaxed);
  }
  snapshot.pool_utilization =
      snapshot.pool_workers == 0
          ? 0.0
          : static_cast<double>(snapshot.busy_workers) / snapshot.pool_workers;
  snapshot.timeouts = timeouts_total_.load(std::memory_order_relaxed);
  snapshot.crashes = crashes_total_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> reg_lock(reg_mu_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      snapshot.shard_views[s].wheel_entries =
          shard.wheel != nullptr ? shard.wheel->size() : 0;
      snapshot.wheel_entries += snapshot.shard_views[s].wheel_entries;
      if (!options_.per_checker_metrics) {
        continue;  // 100k fleets: no per-checker map
      }
      for (const size_t slot_index : shard.members) {
        const Slot& slot = slots_[slot_index];
        snapshot.checker_deadline_ns[slot.checker->name()] =
            static_cast<double>(SlotDeadlineLocked(slot));
        if (slot.checker->options().deadline_prior > 0) {
          ++snapshot.deadline_priors_active;
        }
      }
    }
  }
  Histogram* queue_delay = metrics_->GetHistogram("wdg.driver.queue_delay_ns");
  snapshot.queue_delay_mean_ns = queue_delay->Mean();
  snapshot.queue_delay_p99_ns = queue_delay->Percentile(99);
  snapshot.scheduler_lag_ns = scheduler_lag_gauge_->Value();
  snapshot.supervised = supervision_.client != nullptr;
  snapshot.supervisor_kicks = supervisor_kicks_.load(std::memory_order_relaxed);
  snapshot.supervisor_kicks_withheld =
      supervisor_kicks_withheld_.load(std::memory_order_relaxed);
  return snapshot;
}

}  // namespace wdg
