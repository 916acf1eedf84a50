// Supervised campaign trials: the §3.3 scenario the in-process plane cannot
// score for itself. A system node (kvs / minizk / minihdfs) and its watchdog
// driver run as one simulated process whose only lifeline is a wdogd pipe;
// a single injected disk hang then wedges the main program *and* the mimic
// path the driver uses to prove liveness, so kicks stop — and detection has
// to come from the out-of-process supervisor walking its escalation ladder.
//
// RunSupervisedTrial measures that path end to end: detection latency
// (injection → first journaled escalation), the ladder actually walked
// (warn → restart×budget → reboot), and whether the respawn budget was
// honored. Results land in the ordinary TrialResult so campaign tables and
// benches can aggregate them next to the in-process detectors.
#pragma once

#include <string>

#include "src/common/clock.h"
#include "src/eval/armed_system.h"
#include "src/eval/campaign.h"
#include "src/supervisor/wdogd.h"

namespace wdg {

struct SupervisedTrialOptions {
  System system = System::kKvs;

  // In-process driver → supervisor cadence. The deadline must comfortably
  // exceed the kick interval or a healthy process walks the ladder.
  DurationNs kick_interval = Ms(10);
  DurationNs kick_deadline = Ms(40);

  // Supervisor escalation policy for the trial. The defaults keep a full
  // ladder walk (warn, restarts to budget, reboot) under a second of real
  // time so the trial fits in tests and CI smoke legs.
  EscalationPolicy policy{
      /*default_deadline=*/Ms(40), /*min_deadline=*/Ms(10), /*max_deadline=*/Sec(5),
      /*warn_misses=*/1,           /*restart_misses=*/2,
      /*max_respawns=*/2,          /*restart_backoff=*/Ms(5),
      /*backoff_multiplier=*/2.0};

  DurationNs warmup = Ms(120);        // healthy kicking before injection
  DurationNs observe = Sec(4);        // bound on the whole ladder walk
  // Re-inject the hang after every restart until the supervisor reboots, so
  // a single trial exercises the respawn budget end to end. With `false`
  // the first restart already comes back healthy.
  bool persistent_fault = true;
  uint64_t seed = 42;
};

// Runs one supervised trial. `outcomes[kDetSupervisor]` scores wdogd like
// any other detector; the TrialResult supervisor_* fields carry the ladder.
TrialResult RunSupervisedTrial(const SupervisedTrialOptions& options);

}  // namespace wdg
