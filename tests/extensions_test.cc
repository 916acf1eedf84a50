// Tests for the §2 / §5.2 extension features: the classic multi-stage
// WatchdogTimer, failure replay from captured context, and cheap recovery
// (partition quarantine).
#include <gtest/gtest.h>

#include <atomic>

#include "src/autowd/autowatchdog.h"
#include "src/autowd/replay.h"
#include "src/common/strings.h"
#include "src/kvs/client.h"
#include "src/kvs/ir_model.h"
#include "src/kvs/recovery.h"
#include "src/kvs/server.h"
#include "src/watchdog/flag_set.h"
#include "src/supervisor/watchdog_timer.h"

namespace wdg {
namespace {

// ------------------------------------------------------------ watchdog timer

TEST(WatchdogTimerTest, KickingPreventsExpiry) {
  RealClock& clock = RealClock::Instance();
  WatchdogTimerOptions options;
  options.stage_interval = Ms(50);
  WatchdogTimer wdt(clock, options);
  std::atomic<int> fired{0};
  wdt.AddStage("reset", [&] { ++fired; });
  wdt.Start();
  for (int i = 0; i < 10; ++i) {
    clock.SleepFor(Ms(15));
    wdt.Kick();
  }
  wdt.Stop();
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(wdt.kick_count(), 10);
}

TEST(WatchdogTimerTest, StagesFireInOrderOnSilence) {
  RealClock& clock = RealClock::Instance();
  WatchdogTimerOptions options;
  options.stage_interval = Ms(30);
  WatchdogTimer wdt(clock, options);
  std::vector<std::string> order;
  std::mutex mu;
  wdt.AddStage("interrupt", [&] { std::lock_guard<std::mutex> l(mu); order.push_back("interrupt"); });
  wdt.AddStage("fail-safe", [&] { std::lock_guard<std::mutex> l(mu); order.push_back("fail-safe"); });
  wdt.AddStage("reset", [&] { std::lock_guard<std::mutex> l(mu); order.push_back("reset"); });
  wdt.Start();
  clock.SleepFor(Ms(150));  // silence: all three stages due
  wdt.Stop();
  std::lock_guard<std::mutex> l(mu);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "interrupt");
  EXPECT_EQ(order[1], "fail-safe");
  EXPECT_EQ(order[2], "reset");
}

TEST(WatchdogTimerTest, KickRearmsAfterPartialEscalation) {
  RealClock& clock = RealClock::Instance();
  WatchdogTimerOptions options;
  options.stage_interval = Ms(30);
  WatchdogTimer wdt(clock, options);
  std::atomic<int> stage1{0};
  std::atomic<int> stage2{0};
  wdt.AddStage("warn", [&] { ++stage1; });
  wdt.AddStage("reset", [&] { ++stage2; });
  wdt.Start();
  clock.SleepFor(Ms(45));  // stage 1 fires, stage 2 not yet
  EXPECT_GE(wdt.stages_fired(), 1);
  wdt.Kick();              // system recovers
  clock.SleepFor(Ms(20));
  wdt.Stop();
  EXPECT_GE(stage1.load(), 1);
  EXPECT_EQ(stage2.load(), 0);  // escalation was cancelled by the kick
  EXPECT_EQ(wdt.stages_fired(), 0);
}

TEST(WatchdogTimerTest, StagesExhaustOnceUntilKicked) {
  RealClock& clock = RealClock::Instance();
  WatchdogTimerOptions options;
  options.stage_interval = Ms(20);
  WatchdogTimer wdt(clock, options);
  std::atomic<int> resets{0};
  wdt.AddStage("reset", [&] { ++resets; });
  wdt.Start();
  clock.SleepFor(Ms(120));
  wdt.Stop();
  EXPECT_EQ(resets.load(), 1);  // fires once per episode, not per poll
}

// -------------------------------------------------------------- flag set

TEST(FlagSetTest, AllSetOnlyWhenEveryPointReached) {
  FlagSet flags;
  flags.Declare("recv");
  flags.Declare("apply");
  flags.Declare("reply");
  flags.Set("recv");
  flags.Set("apply");
  EXPECT_FALSE(flags.AllSetAndReset());
  EXPECT_EQ(flags.LastMissing(), std::vector<std::string>{"reply"});
  flags.Set("recv");
  flags.Set("apply");
  flags.Set("reply");
  EXPECT_TRUE(flags.AllSetAndReset());
  EXPECT_TRUE(flags.LastMissing().empty());
  // Flags reset each round: nothing carried over.
  EXPECT_FALSE(flags.AllSetAndReset());
}

TEST(FlagSetTest, SetAutoDeclares) {
  FlagSet flags;
  flags.Set("late-added");
  EXPECT_TRUE(flags.IsSet("late-added"));
  EXPECT_EQ(flags.size(), 1u);
  EXPECT_TRUE(flags.AllSetAndReset());
}

TEST(FlagSetTest, GuardsWatchdogTimerKick) {
  // The §2 pattern end-to-end: the loop kicks the WDT only when every
  // important point was reached this round. When half the loop silently
  // stops executing, the kicks stop and the WDT escalates.
  RealClock& clock = RealClock::Instance();
  WatchdogTimerOptions wdt_options;
  wdt_options.stage_interval = Ms(40);
  WatchdogTimer wdt(clock, wdt_options);
  std::atomic<int> resets{0};
  wdt.AddStage("reset", [&] { ++resets; });
  wdt.Start();

  FlagSet flags;
  flags.Declare("ingest");
  flags.Declare("process");
  std::atomic<bool> process_alive{true};
  StopFlag stop;
  JoiningThread loop([&] {
    while (!stop.WaitFor(Ms(10))) {
      flags.Set("ingest");
      if (process_alive.load()) {
        flags.Set("process");  // this half of the loop later "dies"
      }
      if (flags.AllSetAndReset()) {
        wdt.Kick();
      }
    }
  });

  clock.SleepFor(Ms(120));
  EXPECT_EQ(resets.load(), 0);  // healthy: kicks keep flowing
  process_alive = false;        // partial failure inside the loop
  clock.SleepFor(Ms(120));
  stop.Request();
  loop.Join();
  wdt.Stop();
  EXPECT_GE(resets.load(), 1);  // unkicked WDT escalated
}

// ---------------------------------------------------------------- ParseDump

TEST(ParseDumpTest, RoundtripsAllValueTypes) {
  static const auto kCount = ContextKey<int64_t>::Of("count");
  static const auto kRatio = ContextKey<double>::Of("ratio");
  static const auto kFlag = ContextKey<bool>::Of("flag");
  static const auto kName = ContextKey<std::string>::Of("name");
  CheckContext ctx("c");
  ctx.Set(kCount, 42);
  ctx.Set(kRatio, 1.5);
  ctx.Set(kFlag, true);
  ctx.Set(kName, "snapshot-7");
  ctx.MarkReady(1);
  const auto parsed = CheckContext::ParseDump(ctx.Dump());
  EXPECT_EQ(std::get<int64_t>(parsed.at("count")), 42);
  EXPECT_DOUBLE_EQ(std::get<double>(parsed.at("ratio")), 1.5);
  EXPECT_EQ(std::get<bool>(parsed.at("flag")), true);
  EXPECT_EQ(std::get<std::string>(parsed.at("name")), "snapshot-7");
}

TEST(ParseDumpTest, PreservesNumericLookingStrings) {
  // The v1 round-trip bug: an untagged dump of a *string* "1234" parsed back
  // as int64_t. The v2 type tag pins the variant alternative.
  static const auto kKey = ContextKey<std::string>::Of("key");
  static const auto kCount = ContextKey<int64_t>::Of("count");
  CheckContext ctx("c");
  ctx.Set(kKey, "1234");
  ctx.Set(kCount, 1234);
  ctx.MarkReady(1);
  const auto parsed = CheckContext::ParseDump(ctx.Dump());
  EXPECT_EQ(std::get<std::string>(parsed.at("key")), "1234");
  EXPECT_EQ(std::get<int64_t>(parsed.at("count")), 1234);
}

TEST(ParseDumpTest, AcceptsLegacyUntaggedFormat) {
  // Dumps written before the type tag existed still parse (by shape).
  const auto parsed =
      CheckContext::ParseDump("{count=42, ratio=1.5, flag=true, name=snapshot-7}");
  EXPECT_EQ(std::get<int64_t>(parsed.at("count")), 42);
  EXPECT_DOUBLE_EQ(std::get<double>(parsed.at("ratio")), 1.5);
  EXPECT_EQ(std::get<bool>(parsed.at("flag")), true);
  EXPECT_EQ(std::get<std::string>(parsed.at("name")), "snapshot-7");
}

TEST(ParseDumpTest, ToleratesEmptyAndMalformed) {
  EXPECT_TRUE(CheckContext::ParseDump("{}").empty());
  EXPECT_TRUE(CheckContext::ParseDump("").empty());
  const auto parsed = CheckContext::ParseDump("{garbage, =bad, k=v}");
  EXPECT_EQ(parsed.size(), 1u);
  EXPECT_EQ(std::get<std::string>(parsed.at("k")), "v");
}

TEST(ParseDumpTest, RestorePopulatesAndMarksReady) {
  CheckContext ctx("c");
  ctx.Restore(CheckContext::ParseDump("{file=/sst/9, entries=16}"), 123);
  EXPECT_TRUE(ctx.ready());
  EXPECT_EQ(*ctx.Get<std::string>("file"), "/sst/9");
  EXPECT_EQ(*ctx.Get<int64_t>("entries"), 16);
}

// A failure signature with more keys than any hook batch and one long
// string: Restore stages every parsed value and publishes them as one batch,
// so the restored context must match the original key for key.
TEST(ParseDumpTest, DumpRestoreRoundTripOfManyKeysAndALongString) {
  // Interned first, so its slot sorts before the rt.k* keys while its name
  // sorts after them: the restored batch reaches the flush out of slot order.
  static const auto kLong = ContextKey<std::string>::Of("rt.long");
  CheckContext original("orig");
  for (int i = 0; i < 20; ++i) {
    original.Set(ContextKey<int64_t>::Of(StrFormat("rt.k%02d", i)), i * 11);
  }
  const std::string long_value(300, 'L');
  original.Set(kLong, long_value);
  original.MarkReady(1);
  const std::string dump = original.Dump();

  CheckContext restored("restored");
  restored.Restore(CheckContext::ParseDump(dump), 2);
  EXPECT_TRUE(restored.ready());
  EXPECT_EQ(restored.epoch(), 1u);
  EXPECT_EQ(restored.Snapshot().size(), 21u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*restored.Get<int64_t>(StrFormat("rt.k%02d", i)), i * 11);
  }
  EXPECT_EQ(*restored.Get<std::string>("rt.long"), long_value);
  EXPECT_EQ(restored.Dump(), dump);
}

// ------------------------------------------------------------------- replay

TEST(ReplayTest, ReproducesAPersistentFault) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  SimDisk disk(clock, injector, DiskOptions{.base_latency = Us(5), .per_kb_latency = 0});
  SimNet net(clock, injector);
  kvs::KvsOptions options;
  options.node_id = "kvs1";
  options.flush_threshold_bytes = 256;
  options.flush_poll = Ms(10);
  kvs::KvsNode node(clock, disk, net, options);
  ASSERT_TRUE(node.Start().ok());

  awd::OpExecutorRegistry registry;
  kvs::RegisterOpExecutors(registry, node);
  WatchdogDriver::Options driver_options;
  driver_options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, driver_options);
  awd::GenerationOptions gen;
  gen.checker.interval = Ms(20);
  gen.checker.timeout = Ms(250);
  awd::Generate(kvs::DescribeIr(node.options()), node.hooks(), registry, driver, gen);
  ASSERT_TRUE(driver.Start().ok());

  kvs::KvsClient client(net, "c", "kvs1");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Set(StrFormat("k%02d", i), std::string(64, 'x')).ok());
  }
  FaultSpec fault;
  fault.id = "disk";
  fault.site_pattern = "disk.write";
  fault.kind = FaultKind::kError;
  injector.Inject(fault);
  ASSERT_TRUE(driver.WaitForFailure(Sec(3), [](const FailureSignature& sig) {
    return sig.location.op_site == "disk.write";
  }));
  FailureSignature captured;
  for (const auto& sig : driver.Failures()) {
    if (sig.location.op_site == "disk.write") {
      captured = sig;
    }
  }

  // Postmortem: regenerate the program (deterministic) and replay the
  // pinpointed op with the captured context. Fault still active → reproduces.
  const awd::GenerationReport analysis = awd::Analyze(kvs::DescribeIr(node.options()));
  const awd::ReplayResult while_faulty =
      awd::ReplayFailure(captured, analysis.program, registry);
  EXPECT_TRUE(while_faulty.op_found);
  EXPECT_TRUE(while_faulty.reproduced);
  EXPECT_EQ(while_faulty.op_status.code(), captured.code);

  // After the environment recovers, the same replay passes.
  injector.ClearAll();
  const awd::ReplayResult after_fix = awd::ReplayFailure(captured, analysis.program, registry);
  EXPECT_TRUE(after_fix.op_found);
  EXPECT_FALSE(after_fix.reproduced);
  EXPECT_TRUE(after_fix.op_status.ok());

  EXPECT_TRUE(driver.Stop().ok());
  node.Stop();
}

TEST(ReplayTest, MissingOpReportsNotFound) {
  awd::ReducedProgram empty;
  awd::OpExecutorRegistry registry;
  FailureSignature sig;
  sig.location = {"c", "Fn", "mystery.op", 9};
  const awd::ReplayResult result = awd::ReplayFailure(sig, empty, registry);
  EXPECT_FALSE(result.op_found);
  EXPECT_FALSE(result.reproduced);
}

// ----------------------------------------------------------- cheap recovery

TEST(PartitionQuarantineTest, EndToEndCorruptionRecovery) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  SimDisk disk(clock, injector, DiskOptions{.base_latency = Us(5), .per_kb_latency = 0});
  SimNet net(clock, injector);
  kvs::KvsOptions options;
  options.node_id = "kvs1";
  options.flush_threshold_bytes = 256;
  options.flush_poll = Ms(10);
  options.maintenance_poll = Ms(20);
  kvs::KvsNode node(clock, disk, net, options);
  ASSERT_TRUE(node.Start().ok());

  awd::OpExecutorRegistry registry;
  kvs::RegisterOpExecutors(registry, node);
  WatchdogDriver::Options driver_options;
  driver_options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, driver_options);
  awd::GenerationOptions gen;
  gen.checker.interval = Ms(20);
  gen.checker.timeout = Ms(250);
  awd::Generate(kvs::DescribeIr(node.options()), node.hooks(), registry, driver, gen);

  kvs::PartitionQuarantineRecovery recovery(node);
  driver.AddRecoveryAction("kvs.partition", &recovery);
  ASSERT_TRUE(driver.Start().ok());

  kvs::KvsClient client(net, "c", "kvs1");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Set(StrFormat("k%02d", i), std::string(64, 'x')).ok());
  }
  for (int i = 0; i < 100 && node.partitions().Partitions().empty(); ++i) {
    clock.SleepFor(Ms(10));
  }
  const auto partitions = node.partitions().Partitions();
  ASSERT_FALSE(partitions.empty());
  const std::string victim = partitions.front().path;
  disk.MarkBadRange(victim, 4, 8);  // the media rots under the data

  // Watchdog detects the safety violation and the recovery action fires.
  ASSERT_TRUE(driver.WaitForFailure(Sec(3), [](const FailureSignature& sig) {
    return sig.type == FailureType::kSafetyViolation;
  }));
  for (int i = 0; i < 100 && recovery.recoveries() == 0; ++i) {
    clock.SleepFor(Ms(10));
  }
  EXPECT_GE(recovery.recoveries(), 1);
  EXPECT_FALSE(disk.Exists(victim));                       // moved aside
  EXPECT_TRUE(disk.Exists(victim + ".quarantine"));        // preserved for forensics
  EXPECT_TRUE(node.partitions().ValidateAll().ok());       // system healthy again
  for (const std::string& table : node.index().Tables()) {
    EXPECT_NE(table, victim);  // read path no longer touches the bad table
  }

  EXPECT_TRUE(driver.Stop().ok());
  node.Stop();
}

}  // namespace
}  // namespace wdg
