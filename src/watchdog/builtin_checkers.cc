#include "src/watchdog/builtin_checkers.h"

#include "src/common/strings.h"

namespace wdg {

CheckResult ProbeChecker::Check() {
  // No SetCurrentOp: a probe's pinpoint is its component, which is what the
  // driver's hang and crash signatures fall back to anyway.
  const Status status = probe_();
  if (!failures_.Observe(status.ok())) {
    return CheckResult::Pass();  // healthy, or a single slow/blipped response
  }
  SourceLocation loc;
  loc.component = component();  // probes cannot see deeper than the API
  // A persistent probe failure is client-visible by construction → "validated".
  FailureSignature sig = MakeSignature(
      status.code() == StatusCode::kTimeout ? FailureType::kLivenessTimeout
                                            : FailureType::kOperationError,
      loc, status.code(), StrFormat("probe failed: %s", status.ToString().c_str()));
  sig.impact_confirmed = true;
  sig.validation_ran = true;
  return CheckResult::Fail(std::move(sig));
}

CheckResult SignalChecker::Check() {
  const double value = sample_();
  if (!violations_.Observe(healthy_(value))) {
    return CheckResult::Pass();
  }
  SourceLocation loc;
  loc.component = component();
  return CheckResult::Fail(MakeSignature(
      FailureType::kSafetyViolation, loc, StatusCode::kResourceExhausted,
      StrFormat("indicator '%s' unhealthy: value=%g", indicator_name_.c_str(), value)));
}

CheckResult MimicChecker::Check() {
  if (context_ != nullptr && !context_->ready()) {
    // Paper §3.1: "the watchdog driver will ensure that a checker's context is
    // ready before executing it" — unreached hooks mean nothing to check yet.
    return CheckResult::NotReady();
  }
  static const CheckContext kEmpty{"<none>"};
  return body_(context_ != nullptr ? *context_ : kEmpty, *this);
}

}  // namespace wdg
