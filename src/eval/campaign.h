// Campaign harness: runs a fault Scenario against a live kvs cluster with a
// configurable set of detectors, and scores each detector on detection,
// latency, localization, and false alarms. The Table-2 and §4.2 benches are
// aggregations over this harness.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/eval/scenario.h"
#include "src/watchdog/failure.h"

namespace wdg {

// Detector labels used as result keys.
inline constexpr char kDetMimic[] = "wd-mimic";
inline constexpr char kDetWdProbe[] = "wd-probe";
inline constexpr char kDetWdSignal[] = "wd-signal";
inline constexpr char kDetHeartbeat[] = "heartbeat";
inline constexpr char kDetApiProbe[] = "api-probe";
inline constexpr char kDetObserver[] = "observer";
inline constexpr char kDetSupervisor[] = "wdogd";
// Fusion columns (with_fusion): four FusionDetector instances over the SAME
// verdict stream, differing only in family mask — the fault-matrix campaign's
// honest single-family baselines.
inline constexpr char kDetFused[] = "fused";
inline constexpr char kDetFusedProbeOnly[] = "probe-only";
inline constexpr char kDetFusedSignalOnly[] = "signal-only";
inline constexpr char kDetFusedMimicOnly[] = "mimic-only";

struct TrialOptions {
  bool with_mimic = true;       // AutoWatchdog-generated mimic checkers
  bool with_wd_probe = true;    // probe checker inside the watchdog
  bool with_wd_signal = true;   // signal checkers inside the watchdog
  bool with_heartbeat = true;   // extrinsic crash FD
  bool with_api_probe = true;   // extrinsic API prober
  bool with_observer = true;    // Panorama-style client observer
  // Resource signal-checker suite (src/detectors/signal_suite.h) fed from
  // the leader's ResourceSample/ResourceBeat hook sites.
  bool with_signal_suite = false;
  // Verdict fusion: fused + three single-family-masked FusionDetectors on
  // the driver's listener stream (src/detectors/fusion.h).
  bool with_fusion = false;

  bool enable_validation = false;    // §5.1 mimic→probe escalation
  bool suppress_unconfirmed = false;
  bool dedup_similar = true;         // reduction ablation knob
  // Driver alarm-dedup window override; 0 keeps the driver default (2s).
  // Fusion's persistence boost feeds on post-dedup re-alarms, so matrix
  // trials shorten this to let persistent evidence re-surface.
  DurationNs dedup_window = 0;

  DurationNs warmup = Ms(250);     // workload before injection
  DurationNs observe = Ms(1000);   // observation window after injection
  DurationNs workload_interval = Ms(8);
  uint64_t seed = 42;
};

struct DetectorOutcome {
  bool enabled = false;
  bool detected = false;
  DurationNs latency = 0;  // injection → first alarm
  LocalizationLevel localization = LocalizationLevel::kNone;
  int false_alarms = 0;  // alarms before injection / any alarm in a control run
  std::string detail;    // first alarm description
};

struct TrialResult {
  std::string scenario;
  bool fault_free = false;
  std::map<std::string, DetectorOutcome> outcomes;
  // Extra facts for the benches.
  int64_t workload_requests = 0;
  int64_t workload_errors = 0;
  int64_t suppressed_alarms = 0;
  // Leader metrics snapshot at trial end (error-handler counters etc.).
  std::map<std::string, double> leader_metrics;
  // Supervisor-plane facts (populated by RunSupervisedTrial, zero elsewhere):
  // what the out-of-process wdogd saw and did while the in-process watchdog
  // shared the main program's fate.
  // Fusion facts (with_fusion only): the fused detector's state at trial end.
  double fusion_score = 0;
  std::string fusion_component;
  int64_t fusion_alarms = 0;

  int64_t supervisor_warns = 0;
  int64_t supervisor_restarts = 0;
  int64_t supervisor_reboots = 0;
  bool supervisor_escalated = false;
  DurationNs supervisor_detection_latency = 0;  // injection → first journal event
  std::vector<std::string> reset_causes;        // journaled causes, in order
};

// Runs one scenario end-to-end on a fresh simulated cluster.
TrialResult RunTrial(const Scenario& scenario, const TrialOptions& options);

// --- aggregation (the Table 2 statistics) ---------------------------------

struct DetectorAggregate {
  std::string label;
  int fault_trials = 0;    // trials with a real fault and this detector on
  int detected = 0;        // of those, how many it caught
  int false_alarms = 0;    // control-run + pre-injection alarms
  std::vector<DurationNs> latencies;
  std::map<LocalizationLevel, int> localization;

  double Completeness() const;  // detected / fault_trials
  double Accuracy() const;      // detected / (detected + false_alarms)
  DurationNs MedianLatency() const;
  // Fraction of detections that pinpointed at least `level`.
  double PinpointRate(LocalizationLevel level) const;
};

std::map<std::string, DetectorAggregate> Aggregate(const std::vector<TrialResult>& results);

}  // namespace wdg
