// Edge-case coverage across modules: wire-format robustness, fault-gated
// metadata ops, minizk transaction recovery, eval detector toggles, codegen
// corner cases, and driver wait predicates.
#include <gtest/gtest.h>

#include <memory>

#include "src/autowd/autowatchdog.h"
#include "src/autowd/codegen.h"
#include "src/common/strings.h"
#include "src/eval/campaign.h"
#include "src/minizk/client.h"
#include "src/minizk/ir_model.h"
#include "src/minizk/server.h"
#include "src/minizk/zk_types.h"
#include "src/watchdog/builtin_checkers.h"
#include "tests/support/fault_plan.h"

namespace {

// ----------------------------------------------------------- zk wire format

TEST(ZkTypesTest, PathDataRoundtrip) {
  const std::string payload = minizk::EncodePathData("/a/b", "value with spaces");
  const auto decoded = minizk::DecodePathData(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->first, "/a/b");
  EXPECT_EQ(decoded->second, "value with spaces");
}

TEST(ZkTypesTest, EmptyDataAndEmptyPath) {
  const auto empty_data = minizk::DecodePathData(minizk::EncodePathData("/n", ""));
  ASSERT_TRUE(empty_data.ok());
  EXPECT_EQ(empty_data->second, "");
  const auto missing_sep = minizk::DecodePathData("no-separator-here");
  EXPECT_FALSE(missing_sep.ok());
}

// ------------------------------------------------------- minizk txn recovery

TEST(ZkRecoveryTest, TxnLogReplayRestoresTree) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::FaultInjector injector(clock);
  wdg::SimDisk disk(clock, injector,
                    wdg::DiskOptions{.base_latency = wdg::Us(5), .per_kb_latency = 0});
  wdg::SimNet net(clock, injector, wdg::NetOptions{.base_latency = wdg::Us(20)});

  minizk::ZkFollower follower(clock, net, "zk-f1");
  follower.Start();
  minizk::ZkOptions options;
  options.node_id = "zk-leader";
  options.followers = {"zk-f1"};
  {
    minizk::ZkNode leader(clock, disk, net, options);
    ASSERT_TRUE(leader.Start().ok());
    minizk::ZkClient client(net, "zc", "zk-leader", wdg::Sec(2));
    ASSERT_TRUE(client.Create("/cfg", "v1").ok());
    ASSERT_TRUE(client.Set("/cfg", "v2").ok());
    ASSERT_TRUE(client.Create("/tmp", "x").ok());
    ASSERT_TRUE(client.Delete("/tmp").ok());
    leader.Stop();  // "crash"
  }
  // Restart over the same disk: the txn log replays.
  minizk::ZkNode leader(clock, disk, net, options);
  ASSERT_TRUE(leader.Start().ok());
  EXPECT_EQ(leader.processor().recovered_txns(), 4);
  minizk::ZkClient client(net, "zc2", "zk-leader", wdg::Sec(2));
  const auto value = client.Get("/cfg");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "v2");
  EXPECT_EQ(client.Get("/tmp").status().code(), wdg::StatusCode::kNotFound);
  leader.Stop();
  follower.Stop();
}

// ------------------------------------------------------------ codegen corners

TEST(CodegenEdgeTest, CheckerWithNoContextVariables) {
  awd::ReducedFunction fn;
  fn.name = "Idle_reduced";
  fn.origin = "Idle";
  fn.component = "comp";
  awd::ReducedOp op;
  op.kind = awd::OpKind::kIoFsync;
  op.site = "disk.fsync";
  op.origin_function = "Idle";
  op.origin_instr_id = 1;
  fn.ops.push_back(op);  // op with no args → no variables to capture
  awd::HookPlan plan;    // and no context spec at all
  const std::string source = awd::EmitCheckerSource(fn, plan);
  EXPECT_NE(source.find("Idle_reduced"), std::string::npos);
  EXPECT_NE(source.find("disk.fsync"), std::string::npos);
}

TEST(CodegenEdgeTest, TraceOfEmptyProgramIsWellFormed) {
  awd::Module module("empty");
  awd::ReducedProgram program;
  program.module_name = "empty";
  awd::HookPlan plan;
  const std::string trace = awd::EmitReductionTrace(module, program, plan);
  EXPECT_NE(trace.find("module empty"), std::string::npos);
}

TEST(AnalyzeEdgeTest, ModuleWithoutLongRunningRootsYieldsNothing) {
  awd::Module module("no-roots");
  module.AddFunction(awd::FunctionBuilder("helper", "c")
                         .Op(awd::OpKind::kIoWrite, "disk.write", {"x"})
                         .Build());
  const awd::GenerationReport report = awd::Analyze(module);
  EXPECT_TRUE(report.program.functions.empty());
  EXPECT_TRUE(report.plan.points.empty());
  EXPECT_TRUE(report.checker_names.empty());
}

TEST(AnalyzeEdgeTest, AnnotationsCanBeDisabledByPolicy) {
  awd::Module module("m");
  module.AddFunction(awd::FunctionBuilder("root", "c")
                         .LongRunning()
                         .LoopBegin()
                         .Op(awd::OpKind::kCompute, "custom.op", {"x"})
                         .Vulnerable()
                         .LoopEnd()
                         .Build());
  awd::ReducerOptions honor;
  EXPECT_EQ(awd::Analyze(module, honor).program.stats.ops_retained, 1);
  awd::ReducerOptions ignore;
  ignore.policy.honor_annotations = false;
  EXPECT_EQ(awd::Analyze(module, ignore).program.stats.ops_retained, 0);
}

// -------------------------------------------------------- driver wait predicate

TEST(DriverWaitTest, PredicateFiltersFailures) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::WatchdogDriver driver(clock);
  wdg::CheckerOptions options;
  options.interval = wdg::Ms(10);
  driver.AddChecker(std::make_unique<wdg::ProbeChecker>(
      "a", "compA", [] { return wdg::IoError("a failed"); }, options));
  ASSERT_TRUE(driver.Start().ok());
  // Wait specifically for a failure that never occurs → times out.
  EXPECT_FALSE(driver.WaitForFailure(wdg::Ms(150), [](const wdg::FailureSignature& sig) {
    return sig.checker_name == "nonexistent";
  }));
  // And for one that does.
  EXPECT_TRUE(driver.WaitForFailure(wdg::Sec(1), [](const wdg::FailureSignature& sig) {
    return sig.checker_name == "a";
  }));
  EXPECT_TRUE(driver.Stop().ok());
}

// ----------------------------------------------------------- eval toggles

TEST(TrialTogglesTest, DisabledDetectorsProduceNoOutcomes) {
  wdg::Scenario control;
  control.name = "toggle-control";
  control.fault_free = true;
  wdg::TrialOptions options;
  options.warmup = wdg::Ms(100);
  options.observe = wdg::Ms(200);
  options.with_mimic = false;
  options.with_heartbeat = false;
  options.with_observer = false;
  const wdg::TrialResult result = wdg::RunTrial(control, options);
  EXPECT_EQ(result.outcomes.count(wdg::kDetMimic), 0u);
  EXPECT_EQ(result.outcomes.count(wdg::kDetHeartbeat), 0u);
  EXPECT_EQ(result.outcomes.count(wdg::kDetObserver), 0u);
  EXPECT_EQ(result.outcomes.count(wdg::kDetWdProbe), 1u);
  EXPECT_EQ(result.outcomes.count(wdg::kDetApiProbe), 1u);
}

// ------------------------------------------------- fault-gated metadata ops

TEST(SimDiskEdgeTest, RenameAndListRespectInjectedFaults) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::FaultInjector injector(clock);
  wdg::SimDisk disk(clock, injector, wdg::DiskOptions{.base_latency = 0, .per_kb_latency = 0});
  ASSERT_TRUE(disk.Create("/a").ok());

  wdg::FaultSpec spec;
  spec.id = "meta";
  spec.site_pattern = "disk.rename";
  spec.kind = wdg::FaultKind::kError;
  injector.Inject(spec);
  EXPECT_FALSE(disk.Rename("/a", "/b").ok());
  injector.ClearAll();
  EXPECT_TRUE(disk.Rename("/a", "/b").ok());
  EXPECT_TRUE(disk.Exists("/b"));
}

TEST(SimDiskEdgeTest, ReadPastEofRejected) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::FaultInjector injector(clock);
  wdg::SimDisk disk(clock, injector, wdg::DiskOptions{.base_latency = 0, .per_kb_latency = 0});
  ASSERT_TRUE(disk.Create("/f").ok());
  ASSERT_TRUE(disk.Append("/f", "abc").ok());
  EXPECT_FALSE(disk.Read("/f", 10, 1).ok());
  EXPECT_FALSE(disk.Read("/f", -1, 1).ok());
  // Reading exactly to EOF is fine; short reads clamp.
  const auto tail = disk.Read("/f", 1, 100);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, "bc");
}

// ----------------------------------------------------------- name functions

TEST(EnumNamesTest, AllStableNamesNonEmpty) {
  using wdg::FailureType;
  for (const auto type : {FailureType::kLivenessTimeout, FailureType::kSafetyViolation,
                          FailureType::kOperationError, FailureType::kCheckerCrash}) {
    EXPECT_STRNE(wdg::FailureTypeName(type), "?");
  }
  using wdg::FaultKind;
  for (const auto kind : {FaultKind::kDelay, FaultKind::kHang, FaultKind::kError,
                          FaultKind::kCorruption, FaultKind::kSilentDrop,
                          FaultKind::kBusyLoop}) {
    EXPECT_STRNE(wdg::FaultKindName(kind), "?");
  }
  using wdg::CheckerType;
  for (const auto type : {CheckerType::kProbe, CheckerType::kSignal, CheckerType::kMimic}) {
    EXPECT_STRNE(wdg::CheckerTypeName(type), "?");
  }
  using wdg::LocalizationLevel;
  for (const auto level : {LocalizationLevel::kNone, LocalizationLevel::kProcess,
                           LocalizationLevel::kComponent, LocalizationLevel::kFunction,
                           LocalizationLevel::kOperation}) {
    EXPECT_STRNE(wdg::LocalizationLevelName(level), "?");
  }
  using awd::OpKind;
  for (int k = 0; k <= static_cast<int>(OpKind::kReturn); ++k) {
    EXPECT_STRNE(awd::OpKindName(static_cast<OpKind>(k)), "?");
  }
}

TEST(FaultPlanSimClockTest, DeterministicScheduleUnderSimulatedTime) {
  wdg::SimClock clock;
  wdg::FaultInjector injector(clock);
  wdg::FaultPlan plan(injector, clock);
  wdg::FaultSpec spec;
  spec.id = "windowed";
  spec.site_pattern = "op";
  spec.kind = wdg::FaultKind::kError;
  plan.InjectAt(wdg::Ms(100), spec).RemoveAt(wdg::Ms(200), "windowed");
  plan.Start();
  // Advance simulated time past the injection point and wait for the plan
  // thread to act (it polls real time between sim-time checks).
  clock.Advance(wdg::Ms(150));
  for (int i = 0; i < 200 && !injector.IsActive("windowed"); ++i) {
    wdg::RealClock::Instance().SleepFor(wdg::Ms(2));
  }
  EXPECT_TRUE(injector.IsActive("windowed"));
  clock.Advance(wdg::Ms(100));
  for (int i = 0; i < 200 && injector.IsActive("windowed"); ++i) {
    wdg::RealClock::Instance().SleepFor(wdg::Ms(2));
  }
  EXPECT_FALSE(injector.IsActive("windowed"));
  plan.Stop();
  clock.Shutdown();
}

}  // namespace
