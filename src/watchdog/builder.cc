#include "src/watchdog/builder.h"

#include "src/common/strings.h"

namespace wdg {

CheckerBuilder& CheckerBuilder::Component(std::string component) {
  component_ = std::move(component);
  return *this;
}

CheckerBuilder& CheckerBuilder::Interval(DurationNs interval) {
  interval_ = interval;
  return *this;
}

CheckerBuilder& CheckerBuilder::Deadline(DurationNs deadline) {
  deadline_ = deadline;
  return *this;
}

CheckerBuilder& CheckerBuilder::InitialDelay(DurationNs delay) {
  initial_delay_ = delay;
  return *this;
}

CheckerBuilder& CheckerBuilder::DeadlinePrior(DurationNs prior) {
  deadline_prior_ = prior;
  return *this;
}

CheckerBuilder& CheckerBuilder::Debounce(int consecutive_needed) {
  debounce_ = consecutive_needed;
  debounce_set_ = true;
  return *this;
}

CheckerBuilder& CheckerBuilder::SubscribeSlot(uint32_t key_slot) {
  subscribe_slots_.push_back(key_slot);
  return *this;
}

CheckerBuilder& CheckerBuilder::WithContext(CheckContext* context) {
  context_ = context;
  return *this;
}

CheckerBuilder& CheckerBuilder::ContextFactory(std::function<CheckContext*()> factory) {
  context_factory_ = std::move(factory);
  return *this;
}

CheckerBuilder& CheckerBuilder::Probe(ProbeChecker::ProbeFn probe) {
  if (body_ != Body::kNone) {
    body_conflict_ = true;
  }
  body_ = Body::kProbe;
  probe_ = std::move(probe);
  return *this;
}

CheckerBuilder& CheckerBuilder::Signal(std::string indicator, SignalChecker::SampleFn sample,
                                       SignalChecker::PredicateFn healthy) {
  if (body_ != Body::kNone) {
    body_conflict_ = true;
  }
  body_ = Body::kSignal;
  indicator_ = std::move(indicator);
  sample_ = std::move(sample);
  healthy_ = std::move(healthy);
  return *this;
}

CheckerBuilder& CheckerBuilder::Mimic(MimicChecker::BodyFn body) {
  if (body_ != Body::kNone) {
    body_conflict_ = true;
  }
  body_ = Body::kMimic;
  mimic_ = std::move(body);
  return *this;
}

CheckerBuilder& CheckerBuilder::Custom(CustomFactory factory) {
  if (body_ != Body::kNone) {
    body_conflict_ = true;
  }
  body_ = Body::kCustom;
  custom_ = std::move(factory);
  return *this;
}

CheckerBuilder& CheckerBuilder::EscalationProbe(std::function<Status()> probe,
                                                DurationNs timeout) {
  escalation_probe_ = std::move(probe);
  escalation_timeout_ = timeout;
  return *this;
}

CheckerBuilder& CheckerBuilder::Supervised(DriverSupervision policy) {
  supervision_ = std::move(policy);
  supervision_set_ = true;
  return *this;
}

Result<std::unique_ptr<Checker>> CheckerBuilder::Build() {
  if (name_.empty()) {
    return InvalidArgumentError("checker name must not be empty");
  }
  if (body_conflict_) {
    return InvalidArgumentError(
        StrFormat("checker '%s': more than one body supplied (Probe/Signal/Mimic "
                  "are mutually exclusive)",
                  name_.c_str()));
  }
  if (body_ == Body::kNone) {
    return InvalidArgumentError(
        StrFormat("checker '%s': no body — call Probe(), Signal(), Mimic(), or "
                  "Custom()",
                  name_.c_str()));
  }
  if (interval_ <= 0) {
    return InvalidArgumentError(StrFormat("checker '%s': interval must be > 0", name_.c_str()));
  }
  if (deadline_ <= 0) {
    return InvalidArgumentError(StrFormat("checker '%s': deadline must be > 0", name_.c_str()));
  }
  if (initial_delay_ < 0) {
    return InvalidArgumentError(
        StrFormat("checker '%s': initial delay must be >= 0", name_.c_str()));
  }
  if (debounce_set_ && debounce_ <= 0) {
    return InvalidArgumentError(StrFormat("checker '%s': debounce must be > 0", name_.c_str()));
  }
  if (context_ != nullptr && context_factory_) {
    return InvalidArgumentError(
        StrFormat("checker '%s': WithContext and ContextFactory are mutually "
                  "exclusive",
                  name_.c_str()));
  }

  if (deadline_prior_ < 0) {
    return InvalidArgumentError(
        StrFormat("checker '%s': deadline prior must be >= 0", name_.c_str()));
  }
  // Subscription epochs apply to every body kind. A mimic subscribes against
  // the context it executes in; probe and signal bodies take no execution
  // context, so for them WithContext/ContextFactory is *subscription-only* —
  // it names the context whose key epochs gate scheduling, and requires at
  // least one SubscribeKey (a context with nothing subscribed is a mistake).
  if (!subscribe_slots_.empty() && body_ != Body::kMimic &&
      context_ == nullptr && !context_factory_) {
    return InvalidArgumentError(
        StrFormat("checker '%s': SubscribeKey on a %s body needs WithContext "
                  "or ContextFactory to name the subscribed context",
                  name_.c_str(),
                  body_ == Body::kProbe
                      ? "probe"
                      : (body_ == Body::kSignal ? "signal" : "custom")));
  }
  CheckerOptions options{interval_, deadline_, initial_delay_, deadline_prior_};
  // Resolve the (optional) context once, for any body kind.
  CheckContext* context = context_;
  if (context_factory_) {
    context = context_factory_();
    if (context == nullptr) {
      return InvalidArgumentError(
          StrFormat("checker '%s': context factory returned null", name_.c_str()));
    }
  }
  switch (body_) {
    case Body::kProbe: {
      if (context != nullptr && subscribe_slots_.empty()) {
        return InvalidArgumentError(
            StrFormat("checker '%s': a probe body takes a context only for "
                      "subscriptions — add SubscribeKey, or drop the context",
                      name_.c_str()));
      }
      auto probe = debounce_set_
                       ? std::make_unique<ProbeChecker>(std::move(name_), std::move(component_),
                                                        std::move(probe_), options,
                                                        debounce_)
                       : std::make_unique<ProbeChecker>(std::move(name_), std::move(component_),
                                                        std::move(probe_), options);
      if (!subscribe_slots_.empty()) {
        probe->SubscribeKeys(context, subscribe_slots_);
      }
      return std::unique_ptr<Checker>(std::move(probe));
    }
    case Body::kSignal: {
      if (context != nullptr && subscribe_slots_.empty()) {
        return InvalidArgumentError(
            StrFormat("checker '%s': a signal body takes a context only for "
                      "subscriptions — add SubscribeKey, or drop the context",
                      name_.c_str()));
      }
      const int needed = debounce_set_ ? debounce_ : 3;  // SignalChecker default
      auto signal = std::make_unique<SignalChecker>(
          std::move(name_), std::move(component_), std::move(indicator_), std::move(sample_),
          std::move(healthy_), needed, options);
      if (!subscribe_slots_.empty()) {
        signal->SubscribeKeys(context, subscribe_slots_);
      }
      return std::unique_ptr<Checker>(std::move(signal));
    }
    case Body::kMimic: {
      if (debounce_set_) {
        return InvalidArgumentError(
            StrFormat("checker '%s': Debounce applies to probe/signal bodies only",
                      name_.c_str()));
      }
      if (context == nullptr) {
        return InvalidArgumentError(
            StrFormat("checker '%s': a mimic body requires WithContext or "
                      "ContextFactory",
                      name_.c_str()));
      }
      auto mimic = std::make_unique<MimicChecker>(std::move(name_), std::move(component_),
                                                  context, std::move(mimic_), options);
      if (!subscribe_slots_.empty()) {
        mimic->SubscribeKeys(context, subscribe_slots_);
      }
      return std::unique_ptr<Checker>(std::move(mimic));
    }
    case Body::kCustom: {
      if (debounce_set_) {
        return InvalidArgumentError(
            StrFormat("checker '%s': Debounce applies to probe/signal bodies "
                      "only — a Custom checker owns its own debounce state",
                      name_.c_str()));
      }
      if (context != nullptr && subscribe_slots_.empty()) {
        return InvalidArgumentError(
            StrFormat("checker '%s': a custom body takes a context only for "
                      "subscriptions — add SubscribeKey, or drop the context",
                      name_.c_str()));
      }
      if (!custom_) {
        return InvalidArgumentError(
            StrFormat("checker '%s': Custom() factory is empty", name_.c_str()));
      }
      std::unique_ptr<Checker> custom = custom_(name_, component_, options);
      if (custom == nullptr) {
        return InvalidArgumentError(
            StrFormat("checker '%s': Custom() factory returned null", name_.c_str()));
      }
      if (!subscribe_slots_.empty()) {
        custom->SubscribeKeys(context, subscribe_slots_);
      }
      return custom;
    }
    case Body::kNone:
      break;  // unreachable: handled above
  }
  return InternalError("CheckerBuilder: unhandled body kind");
}

Status CheckerBuilder::RegisterWith(WatchdogDriver& driver) {
  auto built = Build();
  if (!built.ok()) {
    return built.status();
  }
  if (escalation_probe_) {
    Status probe_status =
        driver.SetValidationProbe(escalation_probe_, escalation_timeout_);
    if (!probe_status.ok()) {
      return probe_status;
    }
  }
  if (supervision_set_) {
    Status supervised_status = driver.SetSupervised(supervision_);
    if (!supervised_status.ok()) {
      return supervised_status;
    }
  }
  return driver.TryAddChecker(std::move(built).value());
}

}  // namespace wdg
