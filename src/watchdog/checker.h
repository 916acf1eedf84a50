// Checker: one checking procedure inside a watchdog (paper §3.1).
//
// A checker stores instructions tailored to inspect one part of the main
// program. The driver schedules it, bounds its execution time, and converts
// its crash/hang into a failure signature — the checker deliberately *shares
// fate* with the code it mimics, so a hung checker is itself the detection.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/watchdog/context.h"
#include "src/watchdog/failure.h"

namespace wdg {

enum class CheckerType { kProbe, kSignal, kMimic };

const char* CheckerTypeName(CheckerType type);

enum class CheckOutcome {
  kPass,
  kFail,
  kContextNotReady,  // skipped: the main program hasn't reached the hook yet
  kSkipped,
};

// What one run returns. The signature lives out of line and only Fail()
// sets it, so a passing run (the common case, at up to 10^5 runs/s) moves a
// pointer instead of constructing, moving and destroying seven empty strings.
struct CheckResult {
  CheckOutcome outcome = CheckOutcome::kPass;
  std::unique_ptr<FailureSignature> signature;  // non-null iff outcome == kFail

  static CheckResult Pass() { return CheckResult{}; }
  static CheckResult NotReady() { return CheckResult{CheckOutcome::kContextNotReady, nullptr}; }
  static CheckResult Skipped() { return CheckResult{CheckOutcome::kSkipped, nullptr}; }
  static CheckResult Fail(FailureSignature sig) {
    return CheckResult{CheckOutcome::kFail, std::make_unique<FailureSignature>(std::move(sig))};
  }
};

// Scheduling parameters for one checker.
struct CheckerOptions {
  DurationNs interval = Ms(100);  // how often the driver schedules this checker
  DurationNs timeout = Ms(400);   // execution deadline; a miss is a liveness signature
  DurationNs initial_delay = 0;   // stagger the first run after Start()
  // Static-analysis deadline prior (0 = none): a per-checker hang deadline
  // derived from the interprocedural cost model. Used instead of the global
  // static `timeout`; never exceeds `timeout` (the generator clamps it and
  // the driver takes the min), so it only ever tightens detection.
  DurationNs deadline_prior = 0;
  // Sharded drivers (WatchdogDriverOptions::shards > 1): pin this checker to
  // shard `shard_affinity % shards`, e.g. to co-locate checkers that share a
  // context so their subscription epochs are read by one scheduler thread.
  // -1 (default) assigns by hash of the checker name.
  int shard_affinity = -1;
};

class Checker {
 public:
  using Options = CheckerOptions;

  Checker(std::string name, std::string component, CheckerType type, Options options = {});
  virtual ~Checker();

  // Runs one check. May block on a mimicked operation (that's the point);
  // the driver enforces options().timeout around the whole call.
  virtual CheckResult Check() = 0;

  const std::string& name() const { return name_; }
  const std::string& component() const { return *component_; }
  CheckerType type() const { return type_; }
  const Options& options() const { return options_; }

  // Mimic checkers publish the op they are about to execute; when the driver
  // declares the execution hung, this is the pinpoint it reports. Probe and
  // signal checkers publish none: their signatures fall back to component().
  void SetCurrentOp(SourceLocation op);
  SourceLocation CurrentOp() const;

  // --- subscription epochs (fleet-scale driver) -------------------------
  // Declares that this checker only observes `key_slots` of `context`: the
  // driver skips a scheduled run entirely when none of those keys advanced
  // since the last completed run (counted as wdg.driver.skipped_unchanged),
  // which is what makes a comprehensive fleet of mostly-dormant mimics nearly
  // free. Set before registration; the driver reads it without locks.
  void SubscribeKeys(const CheckContext* context, std::vector<uint32_t> key_slots);
  const CheckContext* subscription_context() const { return subscription_context_; }
  const std::vector<uint32_t>& subscription_slots() const { return subscription_slots_; }

 protected:
  // Convenience for subclasses building failure signatures.
  FailureSignature MakeSignature(FailureType ftype, SourceLocation loc, StatusCode code,
                                 std::string message, std::string context_dump = "") const;

 private:
  // Holder for the mimic-only current-op pinpoint. Allocated lazily on the
  // first SetCurrentOp so the million probe/signal checkers that never
  // publish an op pay one pointer, not a mutex plus a SourceLocation.
  struct OpState;

  const std::string name_;
  // Interned: fleets share one string per component (there are a handful of
  // components and up to 10^6 checkers).
  const std::string* component_;
  const CheckerType type_;
  const Options options_;

  const CheckContext* subscription_context_ = nullptr;
  std::vector<uint32_t> subscription_slots_;

  mutable std::atomic<OpState*> op_state_{nullptr};
};

// The debounce of Table 2's signal and probe checkers: one unhealthy sample
// is normal under load, so fire only after `needed` unhealthy samples in a
// row. A healthy sample resets the streak, and so does every fire, so a
// persistent violation re-fires every `needed` samples rather than
// continuously. Plain members: the driver serializes a checker's runs.
class Debounce {
 public:
  explicit Debounce(int needed) : needed_(needed) {}

  // True when this sample completes a streak of `needed` unhealthy ones.
  bool Observe(bool healthy) {
    if (healthy) {
      count_ = 0;
      return false;
    }
    if (++count_ < needed_) {
      return false;
    }
    count_ = 0;
    return true;
  }

 private:
  int needed_;
  int count_ = 0;
};

}  // namespace wdg
