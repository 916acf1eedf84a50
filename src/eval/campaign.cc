#include "src/eval/campaign.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

#include "src/common/strings.h"
#include "src/detectors/api_probe.h"
#include "src/detectors/client_observer.h"
#include "src/detectors/heartbeat.h"
#include "src/eval/armed_system.h"
#include "src/eval/workload.h"
#include "src/kvs/client.h"
#include "src/watchdog/builtin_checkers.h"

namespace wdg {

namespace {

// A client-level roundtrip in the watchdog keyspace: SET then GET, verify.
Status ProbeRoundtrip(kvs::KvsClient& client, int64_t nonce) {
  const std::string key = std::string(kvs::kWatchdogKeyPrefix) + "probe";
  const std::string value = StrFormat("v%lld", static_cast<long long>(nonce));
  WDG_RETURN_IF_ERROR(client.Set(key, value));
  WDG_ASSIGN_OR_RETURN(const std::string read, client.Get(key));
  if (read != value) {
    // Probe instances can overlap on this shared key: the driver abandons a
    // run that blows its deadline and re-dispatches while the stuck body is
    // still mid-roundtrip, and the validation probe uses its own nonce
    // counter. Any well-formed probe value proves the SET/GET path works;
    // only foreign data is corruption.
    long long other = 0;
    if (std::sscanf(read.c_str(), "v%lld", &other) == 1) {
      return Status::Ok();
    }
    return CorruptionError("probe read back a different value");
  }
  return Status::Ok();
}

struct AlarmRecord {
  TimeNs at = 0;
  SourceLocation location;
  std::string detail;
};

// Splits driver failures by checker kind into pre/post-injection alarms.
void ScoreWatchdogKind(const std::vector<FailureSignature>& failures, const char* kind,
                       TimeNs t_inject, const Scenario& scenario, bool fault_free,
                       DetectorOutcome& outcome) {
  for (const FailureSignature& sig : failures) {
    if (sig.checker_kind != kind) {
      continue;
    }
    if (fault_free || sig.detect_time < t_inject) {
      ++outcome.false_alarms;
      if (outcome.detail.empty()) {
        // Name the first false alarm: the matrix's no-fault column only
        // counts fires, and an anonymous count cannot be debugged.
        outcome.detail = sig.ToString();
      }
      continue;
    }
    if (!outcome.detected) {
      outcome.detected = true;
      outcome.latency = sig.detect_time - t_inject;
      outcome.localization = ScoreLocalization(scenario, sig.location);
      outcome.detail = sig.ToString();
    } else {
      // A fault often trips several checkers (e.g. a hung WAL append also
      // stalls the flush lock). Latency is the first alarm; localization is
      // the best across the alarm set, since diagnosis reads all of them.
      outcome.localization =
          std::max(outcome.localization, ScoreLocalization(scenario, sig.location));
    }
  }
}

void ScoreExtrinsic(std::optional<TimeNs> first_alarm, TimeNs t_inject, bool fault_free,
                    DetectorOutcome& outcome) {
  if (!first_alarm.has_value()) {
    return;
  }
  if (fault_free || *first_alarm < t_inject) {
    ++outcome.false_alarms;
    return;
  }
  outcome.detected = true;
  outcome.latency = *first_alarm - t_inject;
  outcome.localization = LocalizationLevel::kProcess;  // node-granularity only
}

// Scores one FusionDetector's latched fire events like a detector column:
// pre-injection / control fires are false positives, the first post-injection
// fire sets latency, and localization comes from the fused pinpoint (a
// component-level SourceLocation — fusion can't do better than its inputs'
// component attribution without replaying their op-level signatures).
void ScoreFusion(const FusionDetector& detector, TimeNs t_inject,
                 const Scenario& scenario, bool fault_free,
                 DetectorOutcome& outcome) {
  for (const FusionFire& fire : detector.Fires()) {
    if (fault_free || fire.at < t_inject) {
      ++outcome.false_alarms;
      if (outcome.detail.empty()) {
        outcome.detail = StrFormat("fused fire score=%.2f component=%s",
                                   fire.score, fire.component.c_str());
      }
      continue;
    }
    if (!outcome.detected) {
      outcome.detected = true;
      outcome.latency = fire.at - t_inject;
      SourceLocation loc;
      loc.component = fire.component;
      outcome.localization = ScoreLocalization(scenario, loc);
      outcome.detail = StrFormat("fusion score %.2f pinpointing %s", fire.score,
                                 fire.component.c_str());
    }
  }
}

}  // namespace

TrialResult RunTrial(const Scenario& scenario, const TrialOptions& options) {
  // --- the monitored cluster ---------------------------------------------
  ArmedSystemOptions system_options;
  system_options.disk.base_latency = Us(5);
  system_options.disk.per_kb_latency = 0;
  system_options.net.base_latency = Us(20);
  kvs::KvsOptions& leader_options = system_options.kvs;
  leader_options.heartbeat_target = "monitor";
  leader_options.heartbeat_interval = Ms(20);
  leader_options.flush_threshold_bytes = 512;
  leader_options.flush_poll = Ms(10);
  leader_options.compaction_max_tables = 3;
  leader_options.compaction_poll = Ms(20);
  leader_options.maintenance_poll = Ms(25);
  leader_options.replication_ack_timeout = Ms(150);
  WatchdogDriver::Options& driver_options = system_options.driver;
  if (options.dedup_window > 0) {
    driver_options.dedup_window = options.dedup_window;
  }
  // Campaigns run dozens of checkers on a small machine: a compact pool with
  // headroom for abandoned-worker respawns keeps the watchdog's own footprint
  // bounded (it is part of what Fig. 1 measures).
  driver_options.executor.workers = 4;
  driver_options.executor.queue_capacity = 512;
  driver_options.suppress_unconfirmed = options.enable_validation && options.suppress_unconfirmed;
  ArmedSystem system(System::kKvs, system_options, options.seed);
  Clock& clock = system.clock();
  SimNet& net = system.net();
  kvs::KvsNode& leader = *system.kvs();
  WatchdogDriver& driver = system.driver();
  (void)system.Boot();

  // --- detectors -----------------------------------------------------------
  HeartbeatDetectorOptions hb_options;
  hb_options.suspicion_timeout = Ms(120);
  HeartbeatDetector heartbeat(clock, net, hb_options);
  if (options.with_heartbeat) {
    heartbeat.Track("kvs1");
    heartbeat.Start();
  }

  kvs::KvsClient validation_client(net, "val-probe", "kvs1", Ms(150));
  if (options.enable_validation) {
    (void)driver.SetValidationProbe(
        [&validation_client] {
          static std::atomic<int64_t> nonce{0};
          return ProbeRoundtrip(validation_client, nonce.fetch_add(1));
        },
        driver_options.validation_timeout);
  }
  if (options.with_mimic) {
    awd::GenerationOptions gen;
    gen.reducer.dedup_similar = options.dedup_similar;
    gen.checker.interval = Ms(25);
    gen.checker.timeout = Ms(250);
    system.Arm(gen);
  }
  kvs::KvsClient wd_probe_client(net, "wd-probe", "kvs1", Ms(200));
  if (options.with_wd_probe) {
    CheckerOptions probe_options;
    probe_options.interval = Ms(30);
    probe_options.timeout = Ms(550);
    auto nonce = std::make_shared<std::atomic<int64_t>>(0);
    driver.AddChecker(std::make_unique<ProbeChecker>(
        "kvs_api_probe", "kvs",
        [&wd_probe_client, nonce] { return ProbeRoundtrip(wd_probe_client, nonce->fetch_add(1)); },
        probe_options, /*consecutive_needed=*/2));
  }

  if (options.with_wd_signal) {
    CheckerOptions signal_options;
    signal_options.interval = Ms(25);
    signal_options.timeout = Ms(200);
    driver.AddChecker(std::make_unique<SignalChecker>(
        "memtable_pressure", "kvs.flusher", "kvs.memtable.bytes",
        [&leader] { return leader.metrics().GetGauge("kvs.memtable.bytes")->Value(); },
        [](double v) { return v < 2 * 1024; }, 3, signal_options));
    driver.AddChecker(std::make_unique<SignalChecker>(
        "replication_lag", "kvs.replication", "kvs.replication.queue_depth",
        [&leader] {
          return leader.metrics().GetGauge("kvs.replication.queue_depth")->Value();
        },
        [](double v) { return v < 100; }, 3, signal_options));
    driver.AddChecker(std::make_unique<SignalChecker>(
        "listener_backlog", "kvs.listener", "kvs.listener.queue_depth",
        [&leader] { return leader.metrics().GetGauge("kvs.listener.queue_depth")->Value(); },
        [](double v) { return v < 64; }, 3, signal_options));
  }
  if (options.with_signal_suite) {
    (void)system.AttachSignalSuite();
  }
  const FusionColumns* fusion = options.with_fusion ? &system.AttachFusion() : nullptr;
  (void)driver.Start();

  kvs::KvsClient api_probe_client(net, "api-probe", "kvs1", Ms(150));
  ApiProbeOptions api_options;
  api_options.interval = Ms(40);
  api_options.consecutive_failures_needed = 2;
  std::atomic<int64_t> api_nonce{0};
  ApiProbeDetector api_probe(
      clock,
      [&api_probe_client, &api_nonce] {
        return ProbeRoundtrip(api_probe_client, api_nonce.fetch_add(1));
      },
      api_options);
  if (options.with_api_probe) {
    api_probe.Start();
  }

  ClientObserverOptions observer_options;
  // Each failing request burns a full 150ms client timeout, so the window
  // must hold several such slow samples.
  observer_options.window = Ms(800);
  observer_options.min_samples = 3;
  observer_options.unhealthy_error_ratio = 0.5;
  ClientObserver observer(clock, observer_options);

  // --- workload -------------------------------------------------------------
  WorkloadOptions workload_options;
  workload_options.op_interval = options.workload_interval;
  workload_options.seed = options.seed;
  WorkloadGenerator workload(clock, net, "kvs1", workload_options);
  if (options.with_observer) {
    workload.set_on_outcome([&observer](const Status& status) {
      if (status.ok()) {
        observer.ReportSuccess();
      } else {
        observer.ReportFailure(status.code());
      }
    });
  }
  workload.Start();

  // --- run the trial ---------------------------------------------------------
  clock.SleepFor(options.warmup);
  const TimeNs t_inject = clock.NowNs();
  if (scenario.crash) {
    // Fail-stop: the process dies — and the intrinsic watchdog dies with it
    // (Table 1: crash FDs have stronger isolation).
    (void)driver.Stop();
    leader.Stop();
  } else if (!scenario.fault_free) {
    system.injector().Inject(scenario.fault);
  }
  clock.SleepFor(options.observe);

  // --- score ------------------------------------------------------------------
  TrialResult result;
  result.scenario = scenario.name;
  // Benign faults score like controls: the process is healthy, so any alarm
  // is a false alarm (this is where proxy-watching detectors lose accuracy).
  result.fault_free = scenario.fault_free || scenario.benign;
  result.suppressed_alarms = driver.suppressed_count();

  const std::vector<FailureSignature> failures = driver.Failures();
  // Benign faults score like controls: any alarm is a false alarm.
  const bool score_as_control = result.fault_free;
  if (options.with_mimic) {
    DetectorOutcome& outcome = result.outcomes[kDetMimic];
    outcome.enabled = true;
    ScoreWatchdogKind(failures, "mimic", t_inject, scenario, score_as_control, outcome);
  }
  if (options.with_wd_probe) {
    DetectorOutcome& outcome = result.outcomes[kDetWdProbe];
    outcome.enabled = true;
    ScoreWatchdogKind(failures, "probe", t_inject, scenario, score_as_control, outcome);
    if (outcome.detected) {
      outcome.localization = LocalizationLevel::kProcess;  // probes can't see inside
    }
  }
  if (options.with_wd_signal) {
    DetectorOutcome& outcome = result.outcomes[kDetWdSignal];
    outcome.enabled = true;
    ScoreWatchdogKind(failures, "signal", t_inject, scenario, score_as_control, outcome);
    if (outcome.detected) {
      // Signals name a component but nothing finer (Table 2's half-pinpoint).
      outcome.localization = std::min(outcome.localization, LocalizationLevel::kComponent);
    }
  }
  if (fusion != nullptr) {
    const struct {
      const char* label;
      const FusionDetector* detector;
    } columns[] = {{kDetFused, &fusion->fused},
                   {kDetFusedProbeOnly, &fusion->probe_only},
                   {kDetFusedSignalOnly, &fusion->signal_only},
                   {kDetFusedMimicOnly, &fusion->mimic_only}};
    for (const auto& column : columns) {
      DetectorOutcome& outcome = result.outcomes[column.label];
      outcome.enabled = true;
      ScoreFusion(*column.detector, t_inject, scenario, score_as_control, outcome);
    }
    const TimeNs now = clock.NowNs();
    result.fusion_score = fusion->fused.ScoreAt(now);
    result.fusion_component = fusion->fused.PinpointAt(now);
    result.fusion_alarms = fusion->fused.alarms_seen();
  }
  if (options.with_heartbeat) {
    DetectorOutcome& outcome = result.outcomes[kDetHeartbeat];
    outcome.enabled = true;
    ScoreExtrinsic(heartbeat.SuspectTime("kvs1"), t_inject, score_as_control, outcome);
  }
  if (options.with_api_probe) {
    DetectorOutcome& outcome = result.outcomes[kDetApiProbe];
    outcome.enabled = true;
    ScoreExtrinsic(api_probe.FirstAlarmTime(), t_inject, score_as_control, outcome);
  }
  if (options.with_observer) {
    DetectorOutcome& outcome = result.outcomes[kDetObserver];
    outcome.enabled = true;
    ScoreExtrinsic(observer.FirstUnhealthyTime(), t_inject, score_as_control, outcome);
  }
  result.workload_requests = workload.requests();
  result.workload_errors = workload.errors();
  result.leader_metrics = leader.metrics().Snapshot();

  // The driver's checkers call the clients declared after `system`, so it
  // stops before they go.
  system.Stop();
  return result;
}

double DetectorAggregate::Completeness() const {
  return fault_trials == 0 ? 0
                           : static_cast<double>(detected) / static_cast<double>(fault_trials);
}

double DetectorAggregate::Accuracy() const {
  const int alarms = detected + false_alarms;
  return alarms == 0 ? 1.0 : static_cast<double>(detected) / static_cast<double>(alarms);
}

DurationNs DetectorAggregate::MedianLatency() const {
  if (latencies.empty()) {
    return 0;
  }
  std::vector<DurationNs> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2];
}

double DetectorAggregate::PinpointRate(LocalizationLevel level) const {
  if (detected == 0) {
    return 0;
  }
  int at_least = 0;
  for (const auto& [loc, count] : localization) {
    if (loc >= level) {
      at_least += count;
    }
  }
  return static_cast<double>(at_least) / static_cast<double>(detected);
}

std::map<std::string, DetectorAggregate> Aggregate(const std::vector<TrialResult>& results) {
  std::map<std::string, DetectorAggregate> aggregates;
  for (const TrialResult& trial : results) {
    for (const auto& [label, outcome] : trial.outcomes) {
      if (!outcome.enabled) {
        continue;
      }
      DetectorAggregate& agg = aggregates[label];
      agg.label = label;
      agg.false_alarms += outcome.false_alarms;
      if (!trial.fault_free) {
        ++agg.fault_trials;
        if (outcome.detected) {
          ++agg.detected;
          agg.latencies.push_back(outcome.latency);
          ++agg.localization[outcome.localization];
        }
      }
    }
  }
  return aggregates;
}

}  // namespace wdg
