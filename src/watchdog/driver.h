// WatchdogDriver: manages checker scheduling and execution (paper §3.1).
//
// The driver is split into two layers (docs/DRIVER.md):
//
//   scheduler — one thread *per shard* that keeps the shard's checkers in a
//     hierarchical timer wheel (O(1) schedule, lazy cancellation by
//     generation counters) and sleeps until the earliest deadline (a launch
//     becoming due, or an in-flight execution reaching its hang deadline)
//     instead of rescanning all slots on a fixed tick. A finished batch's
//     runs are rescheduled from the batch's finish, so checkers launched
//     together stay one batch; the batch wakes the scheduler early only when
//     a run failed, crashed or was abandoned, or the batch is due again
//     before the planned wake. Checkers are assigned to shards
//     by name hash or explicit CheckerOptions::shard_affinity, so 10⁵
//     checkers split into independent scheduling domains with no shared hot
//     lock.
//   executor  — per shard, a pool of long-lived workers
//     (src/watchdog/executor.h) fed by a bounded queue; a full queue is
//     backpressure, not thread growth. Due checks are dispatched in
//     *batches* (16 by default): one pool task claims and runs several
//     executions serially.
//
// It is the isolation boundary of §3.2:
//   - a checker that *throws* becomes a CHECKER_CRASH signature, never an
//     exception in the main program;
//   - a checker that *hangs* past its deadline becomes a LIVENESS_TIMEOUT
//     signature pinpointing the op it was executing (fate sharing turns the
//     hang itself into the detection); its worker is abandoned — parked off
//     the pool and replaced so capacity never shrinks — and the checker is
//     suspended until the stuck execution drains. Unstarted batch siblings
//     wait for the hang's deadline, then are cancelled and re-dispatched on a
//     healthy worker. The driver never blocks;
//   - repeated identical signatures are deduplicated within a window so a
//     persistent fault doesn't "bark" once per interval;
//   - optionally (§5.1), a mimic-detected fault is escalated to a probe
//     checker to confirm client-visible impact before alarming.
//
// Subscription epochs make a *comprehensive* fleet cheap: a checker that
// declared its context keys (Checker::SubscribeKeys) is skipped before
// dispatch when none of them advanced since its last run — dormant
// components cost a fingerprint compare per interval, not an execution
// (wdg.driver.skipped_unchanged counts them).
//
// The driver also watches itself: per-checker latency histograms, the
// enqueue→dispatch queue-delay histogram, scheduler lag, and pool sizes are
// exported through a MetricsRegistry and summarized, with pool utilization,
// by DriverMetrics() (aggregated across shards, with per-shard views), so a
// signal checker can monitor the watchdog's own health.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/threading.h"
#include "src/watchdog/checker.h"
#include "src/watchdog/executor.h"
#include "src/watchdog/failure.h"
#include "src/watchdog/timer_wheel.h"

namespace wdg {

class FailureListener {
 public:
  virtual ~FailureListener() = default;
  virtual void OnFailure(const FailureSignature& signature) = 0;
};

// Cheap-recovery hook (§5.2): invoked with the precise localization so the
// action can replace a corrupted object / restart one component instead of
// rebooting the process.
class RecoveryAction {
 public:
  virtual ~RecoveryAction() = default;
  virtual void Recover(const FailureSignature& signature) = 0;
};

class CallbackRecovery : public RecoveryAction {
 public:
  explicit CallbackRecovery(std::function<void(const FailureSignature&)> fn)
      : fn_(std::move(fn)) {}
  void Recover(const FailureSignature& signature) override { fn_(signature); }

 private:
  std::function<void(const FailureSignature&)> fn_;
};

struct CheckerStats {
  int64_t runs = 0;
  int64_t passes = 0;
  int64_t fails = 0;
  int64_t context_not_ready = 0;
  int64_t timeouts = 0;
  int64_t crashes = 0;
  // Scheduled runs skipped before dispatch because no subscribed context key
  // advanced (not counted in `runs`).
  int64_t skipped_unchanged = 0;
  DurationNs total_latency = 0;      // dispatch → completion
  DurationNs total_queue_delay = 0;  // enqueue → dispatch
};

// Snapshot of the driver's self-observability metrics. Signal checkers can
// sample these to watch the watchdog itself (e.g. alarm on queue delay).
// With a sharded driver the scalar fields aggregate across shards (sums;
// utilization is the aggregate ratio) and `shard_views` carries the
// per-shard breakdown.
struct DriverMetricsSnapshot {
  int pool_workers = 0;  // currently active workers, summed across shards
  int busy_workers = 0;
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  double pool_utilization = 0;  // busy / workers, in [0, 1]

  int64_t executions_dispatched = 0;
  int64_t executions_completed = 0;
  int64_t timeouts = 0;            // liveness deadline misses
  int64_t crashes = 0;             // checker exceptions caught
  int64_t workers_abandoned = 0;   // hung workers parked off the pool
  int64_t threads_spawned = 0;     // pool threads ever created (incl. respawns)
  int64_t queue_rejections = 0;    // backpressure: submit hit a full queue

  // Fleet-scale scheduling.
  int shards = 1;
  int64_t skipped_unchanged = 0;   // runs skipped: subscribed keys unchanged
  int64_t batches_dispatched = 0;  // pool tasks submitted (≥1 execution each)
  int64_t scheduler_passes = 0;    // scheduler loop passes (wake-ups), all shards
  size_t wheel_entries = 0;        // scheduled wheel entries across shards

  double queue_delay_mean_ns = 0;
  double queue_delay_p99_ns = 0;
  double scheduler_lag_ns = 0;  // last observed oversleep past a planned wake

  // Supervised mode (zero / false when unsupervised).
  bool supervised = false;
  int64_t supervisor_kicks = 0;           // kicks actually sent to wdogd
  int64_t supervisor_kicks_withheld = 0;  // due kicks withheld: liveness unproven

  // Always 0: shard pools no longer steal from each other. Kept only so
  // perfbench can still report driver.batches_stolen_per_s.
  int64_t batches_stolen = 0;

  // Per-shard breakdown (one entry per shard, index == shard id).
  struct ShardView {
    int workers = 0;
    int busy = 0;
    size_t queue_depth = 0;
    int64_t dispatched = 0;
    int64_t completed = 0;
    size_t wheel_entries = 0;
    int64_t skipped_unchanged = 0;
    int64_t workers_abandoned = 0;  // hung workers parked off this shard's pool
  };
  std::vector<ShardView> shard_views;

  // Effective per-checker hang deadlines (ns): the checker's static-analysis
  // deadline prior when one was generated, else its static timeout. Empty
  // when the driver runs with per_checker_metrics = false (100k-checker
  // fleets).
  std::map<std::string, double> checker_deadline_ns;
  // Checkers whose effective deadline comes from a static-analysis prior
  // (deadline_prior set).
  int64_t deadline_priors_active = 0;

  // Flattened view for dashboards / table code that wants name→value.
  std::map<std::string, double> ToMap() const;
};

class WdogClient;

// Supervised mode (docs/SUPERVISOR.md): the driver becomes a client of the
// out-of-process wdogd supervisor. Start() performs the subscribe handshake;
// shard 0's scheduler thread then kicks every kick_interval — but only while
// the driver is *provably live*: the pass itself proves shard 0's wheel is
// advancing, and the kick is withheld unless EVERY shard's executor either
// completed work since the last kick or is fully idle. A wedged pool on any
// shard (work dispatched, nothing completing) or a dead shard-0 scheduler
// goes silent and gets escalated — closing the §3.3 "fault silently disables
// the watchdog" loop one level up.
struct DriverSupervision {
  WdogClient* client = nullptr;  // borrowed; null == unsupervised
  std::string name = "wdg-driver";
  DurationNs kick_interval = Ms(25);
  // Kick deadline requested from the supervisor (it clamps into its policy
  // bounds). Must comfortably exceed kick_interval plus the scheduler's
  // 250 ms sleep cap.
  DurationNs kick_deadline = Ms(150);
  DurationNs handshake_timeout = Ms(500);
};

// Driver configuration.
struct WatchdogDriverOptions {
  DurationNs dedup_window = Sec(2);
  // Executor pool sizing: fixed worker count (at least 1) and submission-queue
  // capacity. With shards > 1 every shard gets its own pool with this
  // configuration, so total workers = shards × workers.
  CheckerExecutorOptions executor;
  // Metrics registry to export driver observability into; the driver owns a
  // private registry when null.
  MetricsRegistry* metrics = nullptr;
  // §5.1 escalation: when a *mimic* checker fails, run this end-to-end
  // probe; if it succeeds the alarm is tagged no-client-impact (and, with
  // suppress_unconfirmed, withheld from listeners).
  std::function<Status()> validation_probe;
  DurationNs validation_timeout = Ms(300);
  bool suppress_unconfirmed = false;
  // Invoked at Stop() before joining stuck executions — campaigns pass
  // [&] { injector.ClearAll(); } so abandoned checkers always drain.
  std::function<void()> release_on_stop;

  // --- fleet-scale scheduling (docs/DRIVER.md) ---------------------------
  // Independent scheduler shards, each with its own timer wheel, mutex,
  // scheduler thread, and executor pool. 1 (default) preserves the classic
  // single-scheduler behavior exactly; 10⁴–10⁵ checker fleets want 4–16.
  // Clamped to [1, 64].
  int shards = 1;
  // Timer-wheel granularity: due times round *up* to this, so it bounds both
  // added scheduling latency and the per-pass tick work. Must divide well
  // into typical intervals; 1 ms suits Ms(10)..Sec(n) checker intervals.
  DurationNs wheel_tick = Ms(1);
  // Executions handed to one pool task at a time: checkers due on the same
  // tick run serially in one task, which costs one queue round-trip and one
  // worker wake-up per batch instead of per check. Passing runs reschedule
  // from the batch's finish, so a co-periodic group stays one batch. 1
  // dispatches one task per check. Hang isolation holds at any size, at one
  // cost: a hung run delays the unstarted siblings queued behind it in its
  // batch until its deadline; then they are cancelled and re-dispatched on
  // a healthy worker.
  int dispatch_batch = 16;
  // Per-checker latency histograms + deadline map in DriverMetrics(). On by
  // default; 10⁵-checker fleets turn it off (the shared queue-delay and
  // aggregate counters remain).
  bool per_checker_metrics = true;
};

class WatchdogDriver {
 public:
  using Options = WatchdogDriverOptions;

  explicit WatchdogDriver(Clock& clock, Options options = {});
  ~WatchdogDriver();

  WatchdogDriver(const WatchdogDriver&) = delete;
  WatchdogDriver& operator=(const WatchdogDriver&) = delete;

  // Registration is allowed before Start() only. Returns a borrow of the
  // checker for test convenience, or nullptr when TryAddChecker would fail
  // (a duplicate name registers nothing). Asserts on misuse in debug builds;
  // prefer TryAddChecker (or CheckerBuilder::RegisterWith) for a typed error.
  Checker* AddChecker(std::unique_ptr<Checker> checker);
  // Typed-error registration: kFailedPrecondition if the driver is already
  // running, kAlreadyExists on a duplicate checker name, kInvalidArgument
  // on a null checker.
  Status TryAddChecker(std::unique_ptr<Checker> checker);
  // Installs (or replaces) the §5.1 escalation probe after construction —
  // CheckerBuilder::EscalationProbe routes here. kFailedPrecondition once
  // the driver is running.
  Status SetValidationProbe(std::function<Status()> probe, DurationNs timeout);
  void AddListener(FailureListener* listener);
  // `component_prefix` matches signature.location.component by prefix.
  void AddRecoveryAction(const std::string& component_prefix, RecoveryAction* action);

  // Installs supervised mode (CheckerBuilder::Supervised routes here); a
  // null client returns the driver to unsupervised mode.
  // kFailedPrecondition once the driver is running.
  Status SetSupervised(DriverSupervision supervision);

  // kFailedPrecondition on double-start. In supervised mode a failed
  // subscribe handshake also fails Start() — an unwatched driver must not
  // pretend otherwise — and leaves the driver stopped.
  Status Start();
  // kFailedPrecondition when the driver is not running (stop-before-start,
  // double-stop). A driver cannot be restarted after a successful Stop().
  Status Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- results ----------------------------------------------------------
  // All signatures recorded (including suppressed ones, flagged accordingly).
  std::vector<FailureSignature> Failures() const;
  std::optional<FailureSignature> FirstFailure() const;
  // Blocks until a failure matching `pred` is recorded (default: any).
  bool WaitForFailure(DurationNs timeout,
                      std::function<bool(const FailureSignature&)> pred = nullptr) const;

  // Temporarily stops scheduling a checker (e.g. while a recovery action
  // repairs its component) and resumes it later. kNotFound for an unknown
  // checker name.
  Status TrySetCheckerEnabled(const std::string& checker_name, bool enabled);
  bool IsCheckerEnabled(const std::string& checker_name) const;

  CheckerStats StatsFor(const std::string& checker_name) const;
  int checker_count() const;
  int64_t deduped_count() const { return deduped_.load(); }
  int64_t suppressed_count() const { return suppressed_.load(); }
  std::vector<std::string> CheckerNames() const;
  // The shard a checker was assigned to (affinity % shards, or name hash);
  // -1 for an unknown name. Exposed for tests and placement debugging.
  int ShardOf(const std::string& checker_name) const;

  // --- driver observability --------------------------------------------
  DriverMetricsSnapshot DriverMetrics() const;
  // The registry the driver exports into (per-checker latency histograms,
  // queue-delay histogram, scheduler-lag gauge, pool gauges). Signal
  // checkers can sample it like any monitored component's registry.
  MetricsRegistry& metrics() { return *metrics_; }

 private:
  // By-value, cache-line-conscious: a million-checker fleet keeps slots_ as
  // one contiguous array, and the fields the scheduler touches every pass
  // (next_run / sched_gen / enabled / running / sub_fingerprint) sit in the
  // first line of each slot. Executions are borrowed from the shard
  // executor's slab freelist — raw pointers, released back exactly once via
  // ReleaseExecution when the scheduler drops them.
  struct Slot {
    Slot(std::unique_ptr<Checker> owned, uint16_t home)
        : shard(home), checker(std::move(owned)) {}

    TimeNs next_run = 0;
    Execution* running = nullptr;  // in-deadline execution (slab-owned)
    // Subscription-epoch baseline: the key-epoch fingerprint observed at the
    // last launch decision. A matching fingerprint at the next due time means
    // no subscribed key advanced → skip the run.
    uint64_t sub_fingerprint = 0;
    uint32_t sched_gen = 0;  // matches the newest live wheel entry for the slot
    uint16_t shard = 0;      // fixed at registration
    bool enabled = true;
    bool sub_armed = false;
    Histogram* latency_hist = nullptr;  // wdg.driver.checker.<name>.latency_ns
    std::unique_ptr<Checker> checker;
    std::vector<Execution*> drain;  // abandoned, still executing (slab-owned)
    CheckerStats stats;
  };

  struct PendingFailure {
    FailureSignature signature;
    CheckerType checker_type;
  };

  // One independent scheduling domain. `mu` guards the shard's wheel,
  // inflight list, and every member slot's mutable state; nothing here is
  // ever touched under another shard's mutex.
  struct Shard {
    mutable std::mutex mu;
    std::unique_ptr<TimerWheel> wheel;  // created at Start (origin = now)
    std::vector<size_t> members;        // slot indices; frozen at Start
    std::vector<size_t> inflight;       // members with running executions/drains
    std::unique_ptr<CheckerExecutor> executor;
    Event wake;  // completions the scheduler needs early, and state changes
    JoiningThread scheduler;
    TimeNs planned_wake = 0;  // scheduler-thread state
    std::atomic<int64_t> skipped_unchanged{0};
    std::atomic<int64_t> passes{0};     // ShardLoop passes, one per wake-up
    std::vector<uint64_t> due;          // scheduler-thread scratch
    std::vector<size_t> launch_scratch; // scheduler-thread scratch
    // Shard-local failure lane: failures detected on this shard are recorded
    // (and deduped — a checker lives on exactly one shard, so per-lane dedup
    // is exact) under a lane mutex that no other shard's dispatch path ever
    // touches. Readers merge lanes sorted by detect_time.
    struct FailureLane {
      mutable std::mutex mu;
      std::vector<FailureSignature> failures;
      std::map<std::string, TimeNs> dedup_last;
    };
    FailureLane lane;
  };

  void ShardLoop(size_t shard_index);
  // Pushes a wheel entry for `slot` at `when` (shard.mu held). The previous
  // entry, if any, is superseded lazily via the generation counter.
  void ScheduleLocked(Shard& shard, Slot& slot, size_t slot_index, TimeNs when);
  // Submits due slots to the shard's pool in dispatch_batch-sized batches
  // (shard.mu held). On backpressure the whole batch is retried at
  // now + backoff.
  void LaunchBatchLocked(Shard& shard, const std::vector<size_t>& launches, TimeNs now);
  // Consumes completions / deadline misses for one in-flight slot (shard.mu
  // held); appends failures for processing outside the lock.
  void ReapLocked(Shard& shard, Slot& slot, size_t slot_index, TimeNs now,
                  std::vector<PendingFailure>& pending);
  // After abandoning a hung execution's batch: cancel its not-yet-started
  // siblings (kPending→kCancelled) and reschedule them shortly (shard.mu held).
  void CancelBatchSiblingsLocked(Shard& shard, const ExecutionBatch* batch, TimeNs now);
  // Collects results that finished right before Stop, without declaring new
  // timeouts (shard.mu held).
  void FinalReapShardLocked(Shard& shard, TimeNs now);
  // True when the slot subscribes to context keys and none advanced since the
  // last launch decision; updates the baseline fingerprint otherwise
  // (shard.mu held).
  bool ShouldSkipUnchangedLocked(Slot& slot);
  // Dedup → validate → record (into `home`'s shard-local lane) → notify.
  // Takes the lane mutex / listeners_mu_ only for short sections, so
  // listeners may call back into driver accessors safely.
  void HandleFailure(FailureSignature sig, CheckerType type, TimeNs now,
                     Shard& home);
  // Bounded run of the validation probe; hang counts as confirmed impact.
  // Called WITHOUT locks held.
  bool RunValidationProbe();
  void EmitLivenessSignature(Slot& slot, DurationNs deadline,
                             std::vector<PendingFailure>& pending);
  // The hang deadline in force for a slot: the checker's static-analysis
  // prior when it has one (capped at its timeout), else its static timeout.
  DurationNs SlotDeadlineLocked(const Slot& slot) const;
  // Supervised-mode heartbeat, run once per shard-0 pass (no locks held):
  // kicks wdogd when due and the all-shards liveness proof holds.
  void MaybeKickSupervisor(TimeNs now);
  // Shard assignment for a checker about to be registered; `name_hash` is
  // std::hash<std::string> of its name.
  int ShardFor(const Checker& checker, size_t name_hash) const;
  // Slot index for a name, under reg_mu_; nullopt when unknown.
  std::optional<size_t> FindSlotLocked(const std::string& checker_name) const;
  // Position in name_index_ of the entry for `name`, or of the empty entry
  // where it would go (reg_mu_ held; name_index_ not empty).
  size_t ProbeNameLocked(const std::string& name, size_t name_hash) const;
  // Doubles name_index_ from the stored hashes alone (reg_mu_ held).
  void GrowNameIndexLocked();

  Clock& clock_;
  Options options_;
  std::atomic<bool> running_{false};
  StopFlag stop_;

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  Gauge* scheduler_lag_gauge_ = nullptr;

  // Registration plane: slots_ grows only before Start() (accessors take
  // reg_mu_ against concurrent registration and HOLD it across any shard.mu
  // section they enter — the vector is by-value, so a concurrent push_back
  // would invalidate Slot references; scheduler threads read the frozen
  // vector without it). Slot *state* is guarded by the owning shard's mutex.
  // Lock order: reg_mu_ → shard.mu; never the reverse.
  mutable std::mutex reg_mu_;
  // In registration order (CheckerNames() lists them so). Each Slot is built
  // in place; a registration allocates nothing per checker here, only when
  // the vector doubles.
  std::vector<Slot> slots_;
  // Name index: open addressing with linear probing over one vector, a power
  // of two in size and at most half full. An entry holds the name's
  // std::hash folded to 32 bits and its slot index. Names are compared,
  // through the heap-stable Checker, only when the stored hashes match, and
  // growing rehashes from the stored hashes without touching a Checker.
  // Slot indices fit 32 bits, as the wheel entries' payloads already assume.
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  struct NameEntry {
    uint32_t hash = 0;
    uint32_t slot = kNoSlot;
  };
  std::vector<NameEntry> name_index_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Listener plane: registration of listeners / recovery actions / probe
  // bookkeeping. Failure *records* live in per-shard lanes (Shard::lane) so
  // the dispatch path never takes a global failure mutex.
  mutable std::mutex listeners_mu_;
  std::vector<FailureListener*> listeners_;
  std::vector<std::pair<std::string, RecoveryAction*>> recovery_actions_;

  // Probe validation bookkeeping (threads are rare and short-lived).
  struct ProbeRun {
    std::mutex mu;
    bool done = false;
    bool failed = false;
    JoiningThread thread;
  };
  std::vector<std::unique_ptr<ProbeRun>> probe_drain_;  // listeners_mu_

  // Supervised mode (shard-0 scheduler-thread state except the counters).
  DriverSupervision supervision_;
  bool stopped_ = false;  // a stopped driver cannot be restarted
  TimeNs last_supervisor_kick_ = 0;
  std::vector<int64_t> completed_at_last_kick_;  // per shard
  std::atomic<int64_t> supervisor_kicks_{0};
  std::atomic<int64_t> supervisor_kicks_withheld_{0};

  std::atomic<int64_t> deduped_{0};
  std::atomic<int64_t> suppressed_{0};
  std::atomic<int64_t> timeouts_total_{0};
  std::atomic<int64_t> crashes_total_{0};
};

}  // namespace wdg
