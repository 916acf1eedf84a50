// Tests for the eval harness: scenario catalog sanity, localization scoring,
// aggregation math, three representative end-to-end trials (control, gray
// failure, crash), and the ArmedSystem harness on all three systems.
#include <gtest/gtest.h>

#include <chrono>

#include "src/eval/armed_system.h"
#include "src/eval/campaign.h"
#include "src/eval/fault_matrix.h"
#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/workload.h"
#include "src/kvs/client.h"
#include "src/kvs/ir_model.h"
#include "src/minihdfs/ir_model.h"
#include "src/minizk/client.h"
#include "src/minizk/ir_model.h"

namespace wdg {
namespace {

TEST(ScenarioCatalogTest, CoversTheGrayFailureSpace) {
  const auto catalog = KvsScenarioCatalog();
  EXPECT_GE(catalog.size(), 14u);
  int controls = 0;
  int crashes = 0;
  int background = 0;  // faults invisible to clients — the probe blind spot
  for (const Scenario& s : catalog) {
    controls += s.fault_free ? 1 : 0;
    crashes += s.crash ? 1 : 0;
    if (!s.fault_free && !s.benign && !s.crash && !s.client_visible) {
      ++background;
    }
    if (!s.fault_free && !s.benign && !s.crash) {
      EXPECT_FALSE(s.true_op_site.empty()) << s.name;
      EXPECT_FALSE(s.true_component.empty()) << s.name;
    }
  }
  EXPECT_GE(controls, 2);
  EXPECT_EQ(crashes, 1);
  EXPECT_GE(background, 5);
}

TEST(ScenarioCatalogTest, UniqueNames) {
  const auto catalog = KvsScenarioCatalog();
  std::set<std::string> names;
  for (const Scenario& s : catalog) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario " << s.name;
  }
}

TEST(LocalizationScoringTest, LevelsRankCorrectly) {
  Scenario s;
  s.true_component = "kvs.flusher";
  s.true_function = "FlushMemtable";
  s.true_op_site = "disk.write";
  EXPECT_EQ(ScoreLocalization(s, {"kvs.flusher", "FlushMemtable", "disk.write", 3}),
            LocalizationLevel::kOperation);
  EXPECT_EQ(ScoreLocalization(s, {"kvs.flusher", "FlushMemtable", "disk.fsync", 4}),
            LocalizationLevel::kFunction);
  EXPECT_EQ(ScoreLocalization(s, {"kvs.flusher", "Other", "x", 1}),
            LocalizationLevel::kComponent);
  EXPECT_EQ(ScoreLocalization(s, {"kvs.listener", "Other", "x", 1}),
            LocalizationLevel::kProcess);
}

TEST(AggregateTest, ComputesCompletenessAccuracyLatency) {
  TrialResult fault_trial;
  fault_trial.scenario = "s1";
  fault_trial.fault_free = false;
  DetectorOutcome hit;
  hit.enabled = true;
  hit.detected = true;
  hit.latency = Ms(100);
  hit.localization = LocalizationLevel::kOperation;
  fault_trial.outcomes["wd-mimic"] = hit;
  DetectorOutcome miss;
  miss.enabled = true;
  fault_trial.outcomes["heartbeat"] = miss;

  TrialResult control;
  control.scenario = "control";
  control.fault_free = true;
  DetectorOutcome noisy;
  noisy.enabled = true;
  noisy.false_alarms = 3;
  control.outcomes["heartbeat"] = noisy;
  DetectorOutcome quiet;
  quiet.enabled = true;
  control.outcomes["wd-mimic"] = quiet;

  const auto aggregates = Aggregate({fault_trial, control});
  const DetectorAggregate& mimic = aggregates.at("wd-mimic");
  EXPECT_DOUBLE_EQ(mimic.Completeness(), 1.0);
  EXPECT_DOUBLE_EQ(mimic.Accuracy(), 1.0);
  EXPECT_EQ(mimic.MedianLatency(), Ms(100));
  EXPECT_DOUBLE_EQ(mimic.PinpointRate(LocalizationLevel::kOperation), 1.0);

  const DetectorAggregate& hb = aggregates.at("heartbeat");
  EXPECT_DOUBLE_EQ(hb.Completeness(), 0.0);
  EXPECT_DOUBLE_EQ(hb.Accuracy(), 0.0);  // 0 detections, 3 false alarms
}

TEST(TablePrinterTest, AlignsAndTruncates) {
  TablePrinter table({{"name", 8}, {"value", 5}});
  EXPECT_EQ(table.Row({"short", "1"}), "short     1      ");
  EXPECT_EQ(table.Row({"waytoolongname", "12345678"}), "waytoolo  12345  ");
  EXPECT_NE(table.HeaderRow().find("name"), std::string::npos);
}

Scenario FindScenario(const std::string& name) {
  for (const Scenario& s : KvsScenarioCatalog()) {
    if (s.name == name) {
      return s;
    }
  }
  ADD_FAILURE() << "missing scenario " << name;
  return Scenario{};
}

TrialOptions FastTrial() {
  TrialOptions options;
  options.warmup = Ms(250);
  options.observe = Ms(700);
  return options;
}

TEST(TrialTest, BenignHeartbeatLinkFaultFoolsOnlyTheCrashFD) {
  // The heartbeat path drops, the process is perfectly healthy: the crash FD
  // false-alarms; every intrinsic checker stays silent.
  Scenario benign;
  for (const Scenario& s : KvsScenarioCatalog()) {
    if (s.name == "monitor-link-drop") {
      benign = s;
    }
  }
  ASSERT_TRUE(benign.benign);
  const TrialResult result = RunTrial(benign, FastTrial());
  EXPECT_TRUE(result.fault_free);  // scored like a control
  EXPECT_GE(result.outcomes.at(kDetHeartbeat).false_alarms, 1);
  EXPECT_EQ(result.outcomes.at(kDetMimic).false_alarms, 0);
  EXPECT_EQ(result.outcomes.at(kDetWdProbe).false_alarms, 0);
  EXPECT_EQ(result.outcomes.at(kDetApiProbe).false_alarms, 0);
}

TEST(WorkloadGeneratorTest, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  int low = 0;
  for (int i = 0; i < 2000; ++i) {
    if (WorkloadGenerator::PickKey(rng, 64, 1.2) < 8) {
      ++low;
    }
  }
  EXPECT_GT(low, 1200);  // heavily skewed to the hot head
  Rng rng2(11);
  int low_uniform = 0;
  for (int i = 0; i < 2000; ++i) {
    if (WorkloadGenerator::PickKey(rng2, 64, 0.0) < 8) {
      ++low_uniform;
    }
  }
  EXPECT_NEAR(low_uniform, 250, 120);  // uniform: ~1/8 of picks
}

TEST(TrialTest, ControlRunIsQuietEverywhere) {
  const TrialResult result = RunTrial(FindScenario("control-1"), FastTrial());
  EXPECT_TRUE(result.fault_free);
  EXPECT_GT(result.workload_requests, 20);
  for (const auto& [label, outcome] : result.outcomes) {
    EXPECT_FALSE(outcome.detected) << label;
    EXPECT_EQ(outcome.false_alarms, 0) << label << ": " << outcome.detail;
  }
}

TEST(TrialTest, BackgroundGrayFailureOnlyMimicSees) {
  // Replication link hang: clients keep committing, heartbeats keep beating.
  const TrialResult result = RunTrial(FindScenario("replication-link-hang"), FastTrial());
  const DetectorOutcome& mimic = result.outcomes.at(kDetMimic);
  EXPECT_TRUE(mimic.detected) << mimic.detail;
  EXPECT_GE(mimic.localization, LocalizationLevel::kFunction) << mimic.detail;
  EXPECT_FALSE(result.outcomes.at(kDetHeartbeat).detected);
  EXPECT_FALSE(result.outcomes.at(kDetApiProbe).detected);
  EXPECT_FALSE(result.outcomes.at(kDetObserver).detected);
}

TEST(TrialTest, CrashOnlyExtrinsicDetectorsSee) {
  const TrialResult result = RunTrial(FindScenario("process-crash"), FastTrial());
  EXPECT_FALSE(result.outcomes.at(kDetMimic).detected);  // watchdog died too
  EXPECT_TRUE(result.outcomes.at(kDetHeartbeat).detected);
  EXPECT_TRUE(result.outcomes.at(kDetApiProbe).detected);
}

TEST(FusionTrialTest, FusedColumnsScoredAndQuietOnControl) {
  // One fused control trial: all four fusion columns enabled, none may fire.
  TrialOptions options = FastTrial();
  options.with_signal_suite = true;
  options.with_fusion = true;
  const TrialResult result = RunTrial(FindScenario("control-1"), options);
  for (const char* label :
       {kDetFused, kDetFusedProbeOnly, kDetFusedSignalOnly, kDetFusedMimicOnly}) {
    const DetectorOutcome& outcome = result.outcomes.at(label);
    EXPECT_TRUE(outcome.enabled) << label;
    EXPECT_FALSE(outcome.detected) << label << ": " << outcome.detail;
    EXPECT_EQ(outcome.false_alarms, 0) << label << ": " << outcome.detail;
  }
  EXPECT_EQ(result.fusion_alarms, 0);
  EXPECT_LT(result.fusion_score, 0.35);  // below even the clear threshold
}

TEST(FusionMatrixTest, FusedDominatesSingleFamiliesWithZeroFalsePositives) {
  // The ISSUE acceptance bar, as a regression test on the downscaled matrix:
  // fused detects every fault class, beats-or-ties the best single family on
  // median latency for >= 3/4 of them, and fires nothing on the no-fault
  // column (or anywhere pre-injection).
  FaultMatrixOptions options;
  options.quick = true;  // 1 seed per class; CI's --smoke-fusion shape
  const FaultMatrixResult result = RunFaultMatrix(options);

  EXPECT_EQ(result.fault_classes, 4);
  EXPECT_EQ(result.fused_detected, result.fault_classes)
      << FormatFaultMatrix(result);
  EXPECT_GE(result.dominated_classes, 3) << FormatFaultMatrix(result);
  EXPECT_EQ(result.total_false_positives, 0) << FormatFaultMatrix(result);
  EXPECT_EQ(result.fused_false_positive_rate, 0.0);
  EXPECT_TRUE(result.MeetsAcceptance()) << FormatFaultMatrix(result);

  // The no-fault column exists and every mode stayed silent there.
  int no_fault_cells = 0;
  for (const FaultMatrixCell& cell : result.cells) {
    if (cell.fault_class == "no-fault") {
      ++no_fault_cells;
      EXPECT_EQ(cell.detected, 0) << cell.mode;
      EXPECT_EQ(cell.false_positives, 0) << cell.mode;
    }
  }
  EXPECT_EQ(no_fault_cells, 4);

  // The JSON payload carries the two gated headline metrics.
  const std::string json = result.ToJson();
  EXPECT_NE(json.find("\"benchmark\": \"fusion_matrix\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"fused\""), std::string::npos);
  EXPECT_NE(json.find("detection_latency_ms"), std::string::npos);
  EXPECT_NE(json.find("false_positive_rate"), std::string::npos);
}

TEST(TrialTest, ClientVisibleFaultSeenByProbesAndMimic) {
  const TrialResult result = RunTrial(FindScenario("wal-append-hang"), FastTrial());
  EXPECT_TRUE(result.outcomes.at(kDetMimic).detected)
      << result.outcomes.at(kDetMimic).detail;
  EXPECT_TRUE(result.outcomes.at(kDetApiProbe).detected);
  EXPECT_TRUE(result.outcomes.at(kDetObserver).detected);
  // Mimic pinpoints the op; probes only know "the process is sick".
  EXPECT_EQ(result.outcomes.at(kDetMimic).localization, LocalizationLevel::kOperation);
  EXPECT_EQ(result.outcomes.at(kDetApiProbe).localization, LocalizationLevel::kProcess);
}

constexpr System kAllSystems[] = {System::kKvs, System::kMinizk, System::kMinihdfs};

awd::GenerationOptions FastGen() {
  awd::GenerationOptions gen;
  gen.checker.interval = Ms(25);
  gen.checker.timeout = Ms(250);
  return gen;
}

// What arming produced: the generated checkers, the hooks the plan armed,
// the ops kept, and the checkers the driver holds.
struct Armed {
  std::vector<std::string> checker_names;
  int hooks_armed = 0;
  int ops_retained = 0;
  size_t driver_checkers = 0;
};

Armed Summarize(const awd::GenerationReport& report, WatchdogDriver& driver) {
  return {report.checker_names, report.hooks_armed, report.program.stats.ops_retained,
          static_cast<size_t>(driver.checker_count())};
}

// The four steps written out by hand, as every bench and example did before
// the harness: same substrate, leader options and driver wiring.
template <typename Leader, typename Options>
Armed HandWire(const Options& options,
               void (*register_executors)(awd::OpExecutorRegistry&, Leader&),
               awd::Module (*describe)(const Options&)) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  SimDisk disk(clock, injector);
  SimNet net(clock, injector);
  Leader leader(clock, disk, net, options);
  awd::OpExecutorRegistry registry;
  register_executors(registry, leader);
  WatchdogDriver::Options driver_options;
  driver_options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, driver_options);
  const awd::GenerationReport report =
      awd::Generate(describe(options), leader.hooks(), registry, driver, FastGen());
  return Summarize(report, driver);
}

Armed HandWired(System system) {
  switch (system) {
    case System::kKvs: {
      kvs::KvsOptions options;
      options.node_id = "kvs1";
      options.followers = {"kvs2"};
      return HandWire<kvs::KvsNode>(options, kvs::RegisterOpExecutors, kvs::DescribeIr);
    }
    case System::kMinizk: {
      minizk::ZkOptions options;
      options.node_id = "zk-leader";
      options.followers = {"zk-f1"};
      return HandWire<minizk::ZkNode>(options, minizk::RegisterOpExecutors, minizk::DescribeIr);
    }
    case System::kMinihdfs:
      break;
  }
  return HandWire<minihdfs::DataNode>(minihdfs::DataNodeOptions{},
                                      minihdfs::RegisterOpExecutors, minihdfs::DescribeIr);
}

TEST(ArmedSystemTest, ArmsLikeTheHandWiredSetup) {
  for (const System system : kAllSystems) {
    SCOPED_TRACE(SystemName(system));
    const Armed hand = HandWired(system);
    ArmedSystem sys(system);
    ASSERT_TRUE(sys.Boot().ok());
    const Armed armed = Summarize(sys.Arm(FastGen()), sys.driver());
    EXPECT_FALSE(armed.checker_names.empty());
    EXPECT_EQ(armed.checker_names, hand.checker_names);
    EXPECT_EQ(armed.hooks_armed, hand.hooks_armed);
    EXPECT_EQ(armed.ops_retained, hand.ops_retained);
    EXPECT_EQ(armed.driver_checkers, hand.driver_checkers);
  }
}

// Sends each system's first write, so its generated checkers' contexts
// synchronize and their mimics start touching the disk.
void FirstWrite(System system, ArmedSystem& sys) {
  switch (system) {
    case System::kKvs: {
      kvs::KvsClient client(sys.net(), "c", "kvs1", Ms(300));
      EXPECT_TRUE(client.Set("k", std::string(600, 'v')).ok());
      return;
    }
    case System::kMinizk: {
      minizk::ZkClient client(sys.net(), "zc", "zk-leader", Ms(300));
      EXPECT_TRUE(client.Create("/app", "v0").ok());
      return;
    }
    case System::kMinihdfs:
      break;
  }
  Endpoint* client = sys.net().CreateEndpoint("hdfs-client");
  EXPECT_TRUE(client->Call("dn1", minihdfs::kMsgWriteBlock, std::string("1") + '\x1f' + "b",
                           Ms(500))
                  .ok());
}

TEST(ArmedSystemTest, TeardownUnparksAHangOnEveryDiskSite) {
  // A disk hang parks whichever thread reaches a disk site next: a mimic
  // probe or a node loop. Stopping a node first would join a parked thread
  // forever; the harness clears the fault before any join.
  for (const System system : kAllSystems) {
    SCOPED_TRACE(SystemName(system));
    auto sys = std::make_unique<ArmedSystem>(system);
    ASSERT_TRUE(sys->Boot().ok());
    sys->Arm(FastGen());
    ASSERT_TRUE(sys->Start().ok());
    FirstWrite(system, *sys);
    FaultSpec hang;
    hang.id = "disk-hang";
    hang.site_pattern = "disk.*";
    hang.kind = FaultKind::kHang;
    sys->injector().Inject(hang);
    const TimeNs deadline = sys->clock().NowNs() + Sec(3);
    while (sys->injector().parked_thread_count() == 0 && sys->clock().NowNs() < deadline) {
      sys->clock().SleepFor(Ms(5));
    }
    ASSERT_GT(sys->injector().parked_thread_count(), 0);

    const auto start = std::chrono::steady_clock::now();
    sys.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(3));
  }
}

}  // namespace
}  // namespace wdg
