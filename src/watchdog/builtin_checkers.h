// The three checker families of Table 2.
//
//   ProbeChecker  — a special client invoking public APIs with pre-supplied
//                   input. Perfect accuracy, weak completeness, no pinpoint.
//   SignalChecker — monitors a health indicator against a threshold. Modest
//                   completeness, weak accuracy, partial pinpoint.
//   MimicChecker  — re-executes selected (reduced) operations of the main
//                   program with synchronized context. Strong completeness
//                   and accuracy, pinpoints the failing instruction.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "src/watchdog/checker.h"

namespace wdg {

// Probe: run a client-level request; a *persistent* error is a true contract
// violation. `consecutive_needed` debounces one-off slow responses so the
// probe keeps its Table-2 "perfect accuracy" property.
class ProbeChecker : public Checker {
 public:
  using ProbeFn = std::function<Status()>;

  ProbeChecker(std::string name, std::string component, ProbeFn probe, Options options = {},
               int consecutive_needed = 1)
      : Checker(std::move(name), std::move(component), CheckerType::kProbe, options),
        probe_(std::move(probe)), failures_(consecutive_needed) {}

  CheckResult Check() override;

 private:
  ProbeFn probe_;
  Debounce failures_;
};

// Signal: sample a numeric indicator; fail after `consecutive_needed`
// violations of the predicate in a row (debouncing, since one bad sample of
// e.g. queue length is normal under load — the accuracy weakness of Table 2).
class SignalChecker : public Checker {
 public:
  using SampleFn = std::function<double()>;
  using PredicateFn = std::function<bool(double)>;  // true == healthy

  SignalChecker(std::string name, std::string component, std::string indicator_name,
                SampleFn sample, PredicateFn healthy, int consecutive_needed = 3,
                Options options = {})
      : Checker(std::move(name), std::move(component), CheckerType::kSignal, options),
        indicator_name_(std::move(indicator_name)), sample_(std::move(sample)),
        healthy_(std::move(healthy)), violations_(consecutive_needed) {}

  CheckResult Check() override;

 private:
  std::string indicator_name_;
  SampleFn sample_;
  PredicateFn healthy_;
  Debounce violations_;
};

// Mimic: executes a check body against a synchronized context. The body is
// either hand-written (this class) or synthesized by AutoWatchdog
// (awd::GeneratedChecker derives from Checker directly).
class MimicChecker : public Checker {
 public:
  using BodyFn = std::function<CheckResult(const CheckContext&, MimicChecker&)>;

  MimicChecker(std::string name, std::string component, CheckContext* context, BodyFn body,
               Options options = {})
      : Checker(std::move(name), std::move(component), CheckerType::kMimic, options),
        context_(context), body_(std::move(body)) {}

  CheckResult Check() override;

  // Exposed so bodies can build properly-attributed signatures.
  using Checker::MakeSignature;

 private:
  CheckContext* context_;
  BodyFn body_;
};

}  // namespace wdg
