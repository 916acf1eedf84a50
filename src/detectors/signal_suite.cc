#include "src/detectors/signal_suite.h"

#include "src/common/strings.h"
#include "src/watchdog/builder.h"

namespace wdg {

// --- state machines ---------------------------------------------------------

bool LeakSlopeState::Observe(int64_t value) {
  if (!seen_) {
    seen_ = true;
    baseline_ = last_ = value;
    return false;
  }
  if (value < last_) {
    // Any reclaim breaks the monotone run: sawtooth churn re-baselines here
    // every cycle and can never accumulate min_growth_.
    baseline_ = value;
    last_ = value;
    return false;
  }
  last_ = value;
  return value - baseline_ >= min_growth_;
}

bool JitterState::Observe(TimeNs now, int64_t beat) {
  if (!seen_ || beat != last_beat_) {
    seen_ = true;
    last_beat_ = beat;
    last_change_ = now;
    stale_since_ = 0;
    return false;
  }
  if (now - last_change_ <= config_.max_gap) {
    return false;  // unchanged but within the allowed gap
  }
  if (stale_since_ == 0) {
    stale_since_ = now;  // start the confirm window, don't fire yet
  }
  return now - stale_since_ >= config_.confirm;
}

// --- checkers ---------------------------------------------------------------

KeyedSignalChecker::KeyedSignalChecker(std::string name, std::string component,
                                       Clock& clock, const CheckContext* context,
                                       ContextKey<int64_t> key,
                                       CheckerOptions options)
    : Checker(std::move(name), std::move(component), CheckerType::kSignal, options),
      clock_(clock), context_(context), key_(key) {}

CheckResult KeyedSignalChecker::Check() {
  if (context_ == nullptr || !context_->ready()) {
    return CheckResult::NotReady();
  }
  const std::optional<int64_t> value = context_->Get(key_);
  if (!value.has_value()) {
    // The context is live but nobody has published THIS key: not healthy,
    // not a failure — the publisher's hook simply hasn't run (or isn't
    // wired).
    return CheckResult::NotReady();
  }
  return OnSample(*value, clock_.NowNs());
}

LeakSlopeChecker::LeakSlopeChecker(std::string name, std::string component,
                                   Clock& clock, const CheckContext* context,
                                   ContextKey<int64_t> key, std::string indicator,
                                   int64_t min_growth, FailureType ftype,
                                   StatusCode code, CheckerOptions options)
    : KeyedSignalChecker(std::move(name), std::move(component), clock, context,
                         key, options),
      indicator_(std::move(indicator)), ftype_(ftype), code_(code),
      state_(min_growth) {}

CheckResult LeakSlopeChecker::OnSample(int64_t value, TimeNs /*now*/) {
  if (!state_.Observe(value)) {
    return CheckResult::Pass();
  }
  return CheckResult::Fail(MakeSignature(
      ftype_, SourceLocation{component(), "", "", -1}, code_,
      StrFormat("%s leaked: %lld grew monotonically from baseline %lld",
                indicator_.c_str(), static_cast<long long>(value),
                static_cast<long long>(state_.baseline()))));
}

ThresholdChecker::ThresholdChecker(std::string name, std::string component,
                                   Clock& clock, const CheckContext* context,
                                   ContextKey<int64_t> key, std::string indicator,
                                   int64_t limit, int consecutive, bool fire_above,
                                   FailureType ftype, StatusCode code,
                                   CheckerOptions options)
    : KeyedSignalChecker(std::move(name), std::move(component), clock, context,
                         key, options),
      indicator_(std::move(indicator)), limit_(limit), fire_above_(fire_above),
      ftype_(ftype), code_(code), violations_(consecutive) {}

CheckResult ThresholdChecker::OnSample(int64_t value, TimeNs /*now*/) {
  const bool violating = fire_above_ ? (value > limit_) : (value < limit_);
  if (!violations_.Observe(!violating)) {
    return CheckResult::Pass();
  }
  return CheckResult::Fail(MakeSignature(
      ftype_, SourceLocation{component(), "", "", -1}, code_,
      StrFormat("%s %s limit: %lld vs %lld (debounced)", indicator_.c_str(),
                fire_above_ ? "above" : "below", static_cast<long long>(value),
                static_cast<long long>(limit_))));
}

BeatJitterChecker::BeatJitterChecker(std::string name, std::string component,
                                     Clock& clock, const CheckContext* context,
                                     ContextKey<int64_t> key, std::string indicator,
                                     JitterConfig config, CheckerOptions options)
    : KeyedSignalChecker(std::move(name), std::move(component), clock, context,
                         key, options),
      indicator_(std::move(indicator)), config_(config), state_(config) {}

CheckResult BeatJitterChecker::OnSample(int64_t value, TimeNs now) {
  if (!state_.Observe(now, value)) {
    return CheckResult::Pass();
  }
  return CheckResult::Fail(MakeSignature(
      FailureType::kLivenessTimeout, SourceLocation{component(), "", "", -1},
      StatusCode::kTimeout,
      StrFormat("%s stalled: beat unchanged > %lld ms (confirmed %lld ms)",
                indicator_.c_str(),
                static_cast<long long>(config_.max_gap / 1000000),
                static_cast<long long>(config_.confirm / 1000000))));
}

// --- registration -----------------------------------------------------------

Status RegisterSignalSuite(WatchdogDriver& driver, Clock& clock,
                           CheckContext* context, const SignalSuiteKeys& keys,
                           const SignalSuiteOptions& options) {
  struct Spec {
    const char* name;
    const std::string* component;
    const ContextKey<int64_t>* key;
    bool subscribe;
    CheckerBuilder::CustomFactory factory;
  };

  const auto leak = [&](ContextKey<int64_t> key, std::string indicator,
                        int64_t min_growth) {
    return [&clock, context, key, indicator = std::move(indicator), min_growth](
               const std::string& name, const std::string& component,
               const CheckerOptions& opts) -> std::unique_ptr<Checker> {
      return std::make_unique<LeakSlopeChecker>(
          name, component, clock, context, key, indicator, min_growth,
          FailureType::kSafetyViolation, StatusCode::kResourceExhausted, opts);
    };
  };
  const auto threshold = [&](ContextKey<int64_t> key, std::string indicator,
                             int64_t limit, int consecutive, bool fire_above,
                             FailureType ftype, StatusCode code) {
    return [&clock, context, key, indicator = std::move(indicator), limit,
            consecutive, fire_above, ftype, code](
               const std::string& name, const std::string& component,
               const CheckerOptions& opts) -> std::unique_ptr<Checker> {
      return std::make_unique<ThresholdChecker>(name, component, clock, context,
                                                key, indicator, limit, consecutive,
                                                fire_above, ftype, code, opts);
    };
  };

  const Spec specs[] = {
      {"fd_leak", &options.fd_component, &keys.open_handles, true,
       leak(keys.open_handles, "open handles", options.fd_min_growth)},
      {"rss_growth", &options.rss_component, &keys.rss_bytes, true,
       leak(keys.rss_bytes, "resident bytes", options.rss_min_growth)},
      {"queue_depth", &options.queue_component, &keys.queue_depth, true,
       threshold(keys.queue_depth, "queue depth", options.queue_max_depth,
                 options.queue_consecutive, /*fire_above=*/true,
                 FailureType::kSafetyViolation, StatusCode::kResourceExhausted)},
      {"disk_latency", &options.disk_component, &keys.disk_lat_ns, true,
       threshold(keys.disk_lat_ns, "disk latency ns", options.disk_max_latency,
                 options.disk_consecutive, /*fire_above=*/true,
                 FailureType::kLivenessTimeout, StatusCode::kTimeout)},
      {"thread_count", &options.threads_component, &keys.live_threads, true,
       threshold(keys.live_threads, "live loops", options.threads_min_live,
                 options.threads_consecutive, /*fire_above=*/false,
                 FailureType::kLivenessTimeout, StatusCode::kTimeout)},
      // Jitter: unsubscribed — it must keep running while the key is quiet,
      // because a quiet key IS its failure condition.
      {"kick_jitter", &options.beat_component, &keys.last_beat_ns, false,
       [&clock, context, key = keys.last_beat_ns, jitter = options.jitter](
           const std::string& name, const std::string& component,
           const CheckerOptions& opts) -> std::unique_ptr<Checker> {
         return std::make_unique<BeatJitterChecker>(name, component, clock,
                                                    context, key, "kick beat",
                                                    jitter, opts);
       }},
  };

  for (const Spec& spec : specs) {
    CheckerBuilder builder(options.name_prefix + spec.name);
    builder.Component(*spec.component)
        .Interval(options.interval)
        .Deadline(options.deadline)
        .Custom(spec.factory);
    if (spec.subscribe && context != nullptr) {
      builder.WithContext(context).SubscribeKey(*spec.key);
    }
    Status status = builder.RegisterWith(driver);
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

}  // namespace wdg
