// Signal-checker suite: the reusable resource-indicator library (Table 2's
// "signal checker" family) fed through the typed context plane.
//
// Each checker samples ONE int64 context key that the monitored system
// publishes from its own loops (see kvs::keys::Res*), so the suite never
// scrapes /proc or takes locks inside the main program — the hook site pays
// one relaxed load when unarmed, and the checker-side read is the lock-free
// Get(). The detection logic lives in small pure state machines exposed here
// precisely so the property tests in tests/detectors_signal_test.cc can drive
// them with seeded synthetic series (leak ramps, plateaus, sawtooth churn)
// and prove the fire/no-fire boundaries without a driver in the loop.
//
// Registration goes through CheckerBuilder::Custom onto the sharded driver;
// every checker except the kick-jitter one subscribes to its key, so a
// dormant signal (key not advancing) is skipped by the subscription-epoch
// gate instead of burning a run — and skipped runs don't advance the
// consecutive counters, so debounce always counts *fresh* samples. The
// jitter checker deliberately does NOT subscribe: its whole job is to fire
// when the beat key STOPS advancing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/watchdog/checker.h"
#include "src/watchdog/context.h"

namespace wdg {

class WatchdogDriver;

// --- pure detection state machines (property-test surface) ----------------

// Fires while a monotone run has grown >= min_growth above its baseline.
// Any drop resets the baseline to the new value, so sawtooth churn (grow,
// collect, grow, collect) and plateaus never fire; only a ramp that climbs
// min_growth without ever receding does. Stays firing while the run persists
// (driver-side dedup rate-limits the repeats into periodic re-alarms, which
// is what feeds the fusion persistence boost).
class LeakSlopeState {
 public:
  explicit LeakSlopeState(int64_t min_growth) : min_growth_(min_growth) {}

  bool Observe(int64_t value);

  int64_t baseline() const { return baseline_; }
  int64_t last() const { return last_; }

 private:
  int64_t min_growth_;
  bool seen_ = false;
  int64_t baseline_ = 0;
  int64_t last_ = 0;
};

struct JitterConfig {
  DurationNs max_gap = Ms(300);  // beat older than this is stale
  DurationNs confirm = Ms(50);   // staleness must persist this long to fire
};

// Kick-interval jitter: watches a heartbeat value and fires when it stops
// changing. `Observe(now, beat)` — a changed beat resets everything; an
// unchanged beat within max_gap of the last change is normal; past max_gap
// the FIRST stale observation only starts the confirm window, and the state
// fires once staleness has persisted `confirm`. The confirm window exists
// because a one-core scheduler stall makes the timer wheel deliver two
// checker runs back-to-back in catch-up — both observing one momentarily
// stale beat — and without it that burst double-counts into a false alarm.
class JitterState {
 public:
  explicit JitterState(JitterConfig config) : config_(config) {}

  bool Observe(TimeNs now, int64_t beat);

 private:
  JitterConfig config_;
  bool seen_ = false;
  int64_t last_beat_ = 0;
  TimeNs last_change_ = 0;
  TimeNs stale_since_ = 0;
};

// --- checkers --------------------------------------------------------------

// Base for all suite checkers: resolve one int64 key out of the bound
// context. Null context / not-READY / never-written key all surface as
// NotReady — never as "healthy": a signal nobody feeds must not look green.
class KeyedSignalChecker : public Checker {
 public:
  KeyedSignalChecker(std::string name, std::string component, Clock& clock,
                     const CheckContext* context, ContextKey<int64_t> key,
                     CheckerOptions options);

  CheckResult Check() final;

 protected:
  // `value` is the current key sample, `now` the checker-side clock.
  virtual CheckResult OnSample(int64_t value, TimeNs now) = 0;

 private:
  Clock& clock_;
  const CheckContext* context_;
  ContextKey<int64_t> key_;
};

// fd-leak / RSS-growth flavor: LeakSlopeState over the key.
class LeakSlopeChecker : public KeyedSignalChecker {
 public:
  LeakSlopeChecker(std::string name, std::string component, Clock& clock,
                   const CheckContext* context, ContextKey<int64_t> key,
                   std::string indicator, int64_t min_growth,
                   FailureType ftype, StatusCode code, CheckerOptions options);

 protected:
  CheckResult OnSample(int64_t value, TimeNs now) override;

 private:
  std::string indicator_;
  FailureType ftype_;
  StatusCode code_;
  LeakSlopeState state_;
};

// queue-depth / disk-latency / thread-count flavor: fires after `consecutive`
// samples in a row beyond `limit` (above when fire_above, below otherwise),
// re-firing every `consecutive` samples while the violation persists — again
// dedup-shaped on purpose (see Debounce).
class ThresholdChecker : public KeyedSignalChecker {
 public:
  ThresholdChecker(std::string name, std::string component, Clock& clock,
                   const CheckContext* context, ContextKey<int64_t> key,
                   std::string indicator, int64_t limit, int consecutive,
                   bool fire_above, FailureType ftype, StatusCode code,
                   CheckerOptions options);

 protected:
  CheckResult OnSample(int64_t value, TimeNs now) override;

 private:
  std::string indicator_;
  int64_t limit_;
  bool fire_above_;
  FailureType ftype_;
  StatusCode code_;
  Debounce violations_;
};

// kick-interval jitter flavor: JitterState over a beat key. Registered
// WITHOUT a key subscription (see file comment).
class BeatJitterChecker : public KeyedSignalChecker {
 public:
  BeatJitterChecker(std::string name, std::string component, Clock& clock,
                    const CheckContext* context, ContextKey<int64_t> key,
                    std::string indicator, JitterConfig config,
                    CheckerOptions options);

 protected:
  CheckResult OnSample(int64_t value, TimeNs now) override;

 private:
  std::string indicator_;
  JitterConfig config_;
  JitterState state_;
};

// --- suite registration -----------------------------------------------------

// The six int64 keys a monitored system publishes for the suite. Aggregate:
// pass the system's interned keys (e.g. kvs::keys::ResOpenHandles()).
struct SignalSuiteKeys {
  ContextKey<int64_t> open_handles;
  ContextKey<int64_t> rss_bytes;
  ContextKey<int64_t> queue_depth;
  ContextKey<int64_t> disk_lat_ns;
  ContextKey<int64_t> live_threads;
  ContextKey<int64_t> last_beat_ns;
};

struct SignalSuiteOptions {
  DurationNs interval = Ms(25);
  DurationNs deadline = Ms(200);
  // Prepended to every checker name ("kvs_res_" -> "kvs_res_fd_leak", ...).
  std::string name_prefix;
  // Per-signal component attribution (signal checkers pinpoint to component
  // level — Table 2). Empty components are legal but weaken localization.
  std::string fd_component;
  std::string rss_component;
  std::string queue_component;
  std::string disk_component;
  std::string threads_component;
  std::string beat_component;
  // Tuning. Defaults match the kvs maintenance-loop publication cadence.
  int64_t fd_min_growth = 5;         // files above baseline before alarming
  int64_t rss_min_growth = 2048;     // bytes of monotone memtable growth
  int64_t queue_max_depth = 8;       // pending requests
  int queue_consecutive = 3;
  DurationNs disk_max_latency = Ms(100);
  int disk_consecutive = 2;
  int64_t threads_min_live = 1;      // live loop count lower bound
  int threads_consecutive = 2;
  JitterConfig jitter;
};

// Builds the six checkers and registers them on `driver` via
// CheckerBuilder::Custom. The first five subscribe to their key on `context`
// (dormant keys -> skipped runs); the jitter checker intentionally does not.
// `context` may be null only in tests that drive checkers directly.
Status RegisterSignalSuite(WatchdogDriver& driver, Clock& clock,
                           CheckContext* context, const SignalSuiteKeys& keys,
                           const SignalSuiteOptions& options);

}  // namespace wdg
