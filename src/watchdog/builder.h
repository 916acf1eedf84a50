// CheckerBuilder: fluent, validated construction of checkers.
//
// The v1 registration surface was a grab-bag of constructors — misconfiguring
// one (zero interval, a mimic body with no context, two check bodies) either
// asserted deep inside the driver or silently produced a checker that never
// fired. The builder front-loads that validation into a typed error:
//
//   auto status = wdg::CheckerBuilder("flush-mimic")
//                     .Component("kvs.flusher")
//                     .Interval(wdg::Ms(50))
//                     .Deadline(wdg::Ms(200))
//                     .WithContext(hooks.Context("flush_ctx"))
//                     .Mimic(body)
//                     .RegisterWith(driver);
//   if (!status.ok()) { /* kInvalidArgument / kFailedPrecondition / ... */ }
//
// Exactly one body — Probe(), Signal(), or Mimic() — must be supplied.
// Build() returns the checker for callers that manage registration
// themselves; RegisterWith() also installs the optional §5.1 escalation
// probe on the driver. The old direct-constructor entry points remain valid.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/watchdog/builtin_checkers.h"
#include "src/watchdog/driver.h"

namespace wdg {

class CheckerBuilder {
 public:
  explicit CheckerBuilder(std::string name) : name_(std::move(name)) {}

  // The component the checker watches; signatures attribute failures to it.
  CheckerBuilder& Component(std::string component);
  // Scheduling period. Must be > 0.
  CheckerBuilder& Interval(DurationNs interval);
  // Execution deadline; a miss becomes a LIVENESS_TIMEOUT. Must be > 0.
  CheckerBuilder& Deadline(DurationNs deadline);
  // Delay before the first run after Start(); staggers large fleets so they
  // don't all hit the executor queue in the same instant. Must be >= 0.
  CheckerBuilder& InitialDelay(DurationNs delay);
  // Static-analysis deadline prior (CheckerOptions::deadline_prior): used
  // instead of the global Deadline(). Must be >= 0; capped at Deadline() by
  // the driver. 0 disables.
  CheckerBuilder& DeadlinePrior(DurationNs prior);
  // Consecutive violations required before alarming (probe/signal only).
  CheckerBuilder& Debounce(int consecutive_needed);

  // Subscription epochs: the driver skips a scheduled run when none of the
  // subscribed keys advanced since the last completed run (counted as
  // wdg.driver.skipped_unchanged). Any body kind: a mimic subscribes against
  // the context it executes in; a probe/signal body pairs SubscribeKey with
  // WithContext/ContextFactory naming the watched context (the context is
  // subscription-only there — the body still takes no context argument).
  // Call once per key.
  template <typename T>
  CheckerBuilder& SubscribeKey(const ContextKey<T>& key) {
    return SubscribeSlot(key.slot());
  }
  CheckerBuilder& SubscribeSlot(uint32_t key_slot);

  // Context for a mimic body (execution + subscriptions) or for a
  // probe/signal body's SubscribeKey gating (subscription-only): either a
  // fixed context...
  CheckerBuilder& WithContext(CheckContext* context);
  // ...or a factory resolved at Build() time (e.g. hooks not created yet
  // when the builder chain is written down). Mutually exclusive.
  CheckerBuilder& ContextFactory(std::function<CheckContext*()> factory);

  // Exactly one of the four bodies:
  CheckerBuilder& Probe(ProbeChecker::ProbeFn probe);
  CheckerBuilder& Signal(std::string indicator, SignalChecker::SampleFn sample,
                         SignalChecker::PredicateFn healthy);
  CheckerBuilder& Mimic(MimicChecker::BodyFn body);
  // Custom body: the factory receives the builder's validated name/component/
  // options and returns a ready Checker subclass (e.g. the signal-suite
  // checkers in src/detectors/signal_suite.h, which carry per-checker state a
  // plain SampleFn/PredicateFn pair can't). Debounce is the subclass's
  // business and is rejected here; WithContext/ContextFactory is
  // subscription-only (requires SubscribeKey) exactly as for probe/signal —
  // SubscribeKeys is applied to the returned checker after construction.
  using CustomFactory = std::function<std::unique_ptr<Checker>(
      const std::string& name, const std::string& component,
      const CheckerOptions& options)>;
  CheckerBuilder& Custom(CustomFactory factory);

  // §5.1 escalation: installed on the driver by RegisterWith().
  CheckerBuilder& EscalationProbe(std::function<Status()> probe,
                                  DurationNs timeout = Ms(300));

  // Supervised mode: RegisterWith() routes the policy to
  // WatchdogDriver::SetSupervised(), so out-of-process supervision goes
  // through the same blessed registration path as everything else
  // (docs/SUPERVISOR.md). The policy's client must outlive the driver.
  CheckerBuilder& Supervised(DriverSupervision policy);

  // Validates the configuration and constructs the checker.
  // kInvalidArgument on any inconsistency (empty name, no/multiple bodies,
  // non-positive interval/deadline/debounce, context rules violated).
  // A successful Build() moves the name, component and body into the
  // checker, so a builder builds one checker.
  Result<std::unique_ptr<Checker>> Build();

  // Build() + driver registration (+ escalation-probe install, if set).
  // Adds kFailedPrecondition when the driver is already running and
  // kAlreadyExists on a duplicate checker name.
  Status RegisterWith(WatchdogDriver& driver);

 private:
  enum class Body { kNone, kProbe, kSignal, kMimic, kCustom };

  std::string name_;
  std::string component_;
  DurationNs interval_ = Ms(100);
  DurationNs deadline_ = Ms(400);
  DurationNs initial_delay_ = 0;
  DurationNs deadline_prior_ = 0;
  int debounce_ = 1;
  bool debounce_set_ = false;
  std::vector<uint32_t> subscribe_slots_;

  CheckContext* context_ = nullptr;
  std::function<CheckContext*()> context_factory_;

  Body body_ = Body::kNone;
  bool body_conflict_ = false;
  ProbeChecker::ProbeFn probe_;
  std::string indicator_;
  SignalChecker::SampleFn sample_;
  SignalChecker::PredicateFn healthy_;
  MimicChecker::BodyFn mimic_;
  CustomFactory custom_;

  std::function<Status()> escalation_probe_;
  DurationNs escalation_timeout_ = Ms(300);

  DriverSupervision supervision_;
  bool supervision_set_ = false;
};

}  // namespace wdg
