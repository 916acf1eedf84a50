// Timed fault schedules for tests: inject at T1, remove at T2, ...
#pragma once

#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/threading.h"
#include "src/fault/fault_injector.h"

namespace wdg {

struct FaultEvent {
  DurationNs at;  // offset from plan start
  enum class Action { kInject, kRemove } action;
  FaultSpec spec;       // for kInject
  std::string fault_id;  // for kRemove
};

// Replays a schedule of fault events against an injector on a background
// thread. Stop() aborts the remainder of the schedule.
class FaultPlan {
 public:
  FaultPlan(FaultInjector& injector, Clock& clock) : injector_(injector), clock_(clock) {}
  ~FaultPlan() { Stop(); }

  FaultPlan& InjectAt(DurationNs at, FaultSpec spec);
  FaultPlan& RemoveAt(DurationNs at, std::string fault_id);

  void Start();
  void Stop();
  bool finished() const { return finished_.Requested() || done_; }

 private:
  void Run();

  FaultInjector& injector_;
  Clock& clock_;
  std::vector<FaultEvent> events_;
  TimeNs start_ns_ = 0;
  StopFlag stop_;
  StopFlag finished_;
  bool done_ = false;
  JoiningThread thread_;
};

}  // namespace wdg
