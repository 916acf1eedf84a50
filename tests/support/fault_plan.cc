#include "tests/support/fault_plan.h"

#include <algorithm>

namespace wdg {

FaultPlan& FaultPlan::InjectAt(DurationNs at, FaultSpec spec) {
  events_.push_back(FaultEvent{at, FaultEvent::Action::kInject, std::move(spec), ""});
  return *this;
}

FaultPlan& FaultPlan::RemoveAt(DurationNs at, std::string fault_id) {
  events_.push_back(FaultEvent{at, FaultEvent::Action::kRemove, FaultSpec{}, std::move(fault_id)});
  return *this;
}

void FaultPlan::Start() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  // Anchor the schedule here, not in Run(): the plan thread may be scheduled
  // arbitrarily late, and callers advance simulated time right after Start().
  start_ns_ = clock_.NowNs();
  thread_ = JoiningThread([this] { Run(); });
}

void FaultPlan::Stop() {
  stop_.Request();
  thread_.Join();
}

void FaultPlan::Run() {
  const TimeNs start = start_ns_;
  for (const FaultEvent& event : events_) {
    const TimeNs fire_at = start + event.at;
    while (clock_.NowNs() < fire_at) {
      if (stop_.WaitFor(std::min<DurationNs>(Ms(1), fire_at - clock_.NowNs()))) {
        return;
      }
    }
    if (event.action == FaultEvent::Action::kInject) {
      injector_.Inject(event.spec);
    } else {
      injector_.Remove(event.fault_id);
    }
  }
  done_ = true;
  finished_.Request();
}

}  // namespace wdg
