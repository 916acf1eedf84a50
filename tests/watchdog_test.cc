// Unit + integration tests for the core watchdog library: contexts, hooks,
// the three checker families, and the driver (scheduling, hang capture,
// crash isolation, dedup, probe-validation escalation, recovery actions).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "src/common/clock.h"
#include "src/common/strings.h"
#include "src/fault/fault_injector.h"
#include "src/watchdog/builder.h"
#include "src/watchdog/builtin_checkers.h"
#include "src/watchdog/context.h"
#include "src/watchdog/driver.h"
#include "src/watchdog/failure.h"

namespace wdg {
namespace {

// ---------------------------------------------------------------- contexts

TEST(CheckContextTest, NotReadyUntilMarked) {
  static const auto kFile = ContextKey<std::string>::Of("nr.file");
  CheckContext ctx("kvs.flush");
  EXPECT_FALSE(ctx.ready());
  ctx.Set(kFile, "/sst/1");
  EXPECT_FALSE(ctx.ready());  // Set alone does not publish
  ctx.MarkReady(123);
  EXPECT_TRUE(ctx.ready());
  EXPECT_EQ(ctx.last_update(), 123);
  EXPECT_EQ(ctx.epoch(), 1u);
}

TEST(CheckContextTest, TypedKeysReadBack) {
  static const auto kI = ContextKey<int64_t>::Of("tk.i");
  static const auto kD = ContextKey<double>::Of("tk.d");
  static const auto kS = ContextKey<std::string>::Of("tk.s");
  static const auto kB = ContextKey<bool>::Of("tk.b");
  CheckContext ctx("c");
  ctx.Set(kI, 42);
  ctx.Set(kD, 2.5);
  ctx.Set(kS, "text");  // type_identity_t: converts without spelling the type
  ctx.Set(kB, true);
  ctx.MarkReady(1);  // typed writes batch until MarkReady
  EXPECT_EQ(*ctx.Get(kI), 42);
  EXPECT_DOUBLE_EQ(*ctx.Get(kD), 2.5);
  EXPECT_EQ(*ctx.Get(kS), "text");
  EXPECT_TRUE(*ctx.Get(kB));
  // Typed read through the name (cold path) sees the same slots.
  EXPECT_EQ(*ctx.Get<int64_t>("tk.i"), 42);
  EXPECT_DOUBLE_EQ(*ctx.Get<double>("tk.i"), 42.0);  // int widens to double
  EXPECT_FALSE(ctx.Get<int64_t>("tk.s").has_value());  // type mismatch
  EXPECT_FALSE(ctx.Get("missing").has_value());
}

TEST(CheckContextTest, TypedWritesBatchUntilMarkReady) {
  static const auto kFile = ContextKey<std::string>::Of("batch.file");
  static const auto kCount = ContextKey<int64_t>::Of("batch.count");
  CheckContext ctx("c");
  ctx.Set(kFile, "/sst/9");
  ctx.Set(kCount, 16);
  // Staged in the thread-local HookBatch: nothing visible yet.
  EXPECT_EQ(ctx.pending_batch_size(), 2u);
  EXPECT_FALSE(ctx.Get(kFile).has_value());
  ctx.MarkReady(55);
  EXPECT_EQ(ctx.pending_batch_size(), 0u);
  EXPECT_EQ(*ctx.Get(kFile), "/sst/9");
  EXPECT_EQ(*ctx.Get(kCount), 16);
}

TEST(CheckContextTest, KeyRegistryInternsOnce) {
  const auto a = ContextKey<int64_t>::Of("reg.same");
  const auto b = ContextKey<int64_t>::Of("reg.same");
  EXPECT_EQ(a.slot(), b.slot());
  EXPECT_EQ(a.name(), "reg.same");
  // The untyped ContextKey<CtxValue> interns as kAny (codegen's default);
  // a concrete declaration fixes the type.
  CheckContext ctx("c");
  const auto untyped = ContextKey<CtxValue>::Of("reg.untyped_first");
  ctx.Set(untyped, CtxValue(int64_t{1}));
  const auto typed = ContextKey<int64_t>::Of("reg.untyped_first");
  EXPECT_EQ(typed.slot(), untyped.slot());
  EXPECT_EQ(KeyRegistry::Instance().TypeOf(typed.slot()), CtxType::kInt);
}

// The string-keyed *read* side — Get<T>(name) for checkers that only know
// a name at runtime — must keep working now that the v1 string-keyed write
// shim is gone (writers always hold a typed key; Restore uses the private
// slot path).
TEST(CheckContextTest, StringNameReadsOverTypedWrites) {
  static const auto kI = ContextKey<int64_t>::Of("i");
  static const auto kD = ContextKey<double>::Of("d");
  static const auto kS = ContextKey<std::string>::Of("s");
  static const auto kB = ContextKey<bool>::Of("b");
  CheckContext ctx("c");
  ctx.Set(kI, 42);
  ctx.Set(kD, 2.5);
  ctx.Set(kS, "text");
  ctx.Set(kB, true);
  ctx.MarkReady(1);
  EXPECT_EQ(*ctx.Get<int64_t>("i"), 42);
  EXPECT_DOUBLE_EQ(*ctx.Get<double>("d"), 2.5);
  EXPECT_DOUBLE_EQ(*ctx.Get<double>("i"), 42.0);  // int widens to double
  EXPECT_EQ(*ctx.Get<std::string>("s"), "text");
  EXPECT_TRUE(*ctx.Get<bool>("b"));
  EXPECT_FALSE(ctx.Get<int64_t>("s").has_value());  // type mismatch
  EXPECT_FALSE(ctx.Get("missing").has_value());
}

// One key rewritten across the 48-byte inline boundary in both directions:
// short strings live in the cell's inline words, longer ones in its spill
// block (which only grows), and every length must round-trip through both
// the point read and the snapshot scan. A sibling two-key batch rides along
// on the first write to pin multi-value publishes and the epoch count.
TEST(CheckContextTest, StringsRoundTripAcrossTheInlineBoundary) {
  static const auto kStr = ContextKey<std::string>::Of("len.str");
  static const auto kOne = ContextKey<int64_t>::Of("len.one");
  static const auto kTwo = ContextKey<int64_t>::Of("len.two");
  const size_t lengths[] = {0, 47, 48, 49, 64, 200, 3000, 10};
  CheckContext ctx("c");
  ctx.Set(kOne, 1);
  ctx.MarkReady(0);
  uint64_t marks = 1;
  for (const size_t len : lengths) {
    std::string value(len, 'a');
    for (size_t i = 0; i < len; ++i) {
      value[i] = static_cast<char>('a' + (i * 7 + len) % 26);  // no repeats per word
    }
    ctx.Set(kStr, value);
    if (marks == 1) {
      ctx.Set(kOne, 2);
      ctx.Set(kTwo, 3);
    }
    ctx.MarkReady(static_cast<TimeNs>(++marks));
    EXPECT_EQ(*ctx.Get(kStr), value) << "Get, length " << len;
    EXPECT_EQ(std::get<std::string>(ctx.Snapshot().at("len.str")), value)
        << "Snapshot, length " << len;
  }
  EXPECT_EQ(*ctx.Get(kOne), 2);
  EXPECT_EQ(*ctx.Get(kTwo), 3);
  EXPECT_EQ(ctx.epoch(), marks);
}

// A batch staged out of slot order, with one key written twice, publishes
// every key once and keeps the last write of the repeated one.
TEST(CheckContextTest, UnorderedBatchKeepsTheLastWriteOfARepeatedKey) {
  static const auto kLow = ContextKey<int64_t>::Of("order.low");
  static const auto kHigh = ContextKey<std::string>::Of("order.high");
  CheckContext ctx("c");
  ctx.Set(kHigh, std::string(100, 'x'));
  ctx.Set(kLow, 1);
  ctx.Set(kHigh, "last");
  ctx.Set(kLow, 2);
  ctx.Set(kHigh, std::string(60, 'z'));
  ctx.MarkReady(1);
  EXPECT_EQ(*ctx.Get(kLow), 2);
  EXPECT_EQ(*ctx.Get(kHigh), std::string(60, 'z'));
  EXPECT_EQ(ctx.KeyEpoch(kLow), 1u);
  EXPECT_EQ(ctx.KeyEpoch(kHigh), 1u);
  EXPECT_EQ(ctx.Snapshot().size(), 2u);
}

// Uncontended reads never raise the snapshot gate: the optimistic counters
// advance and the fallback counters stay at zero.
TEST(CheckContextTest, ReadStatsTrackOptimisticPath) {
  static const auto kK = ContextKey<int64_t>::Of("stats.k");
  CheckContext ctx("c");
  ctx.Set(kK, 7);
  ctx.MarkReady(1);
  (void)ctx.Get(kK);
  (void)ctx.SnapshotConsistent();
  (void)ctx.Snapshot();
  const auto stats = ctx.read_stats();
  EXPECT_EQ(stats.snapshot_optimistic, 2);
  EXPECT_EQ(stats.snapshot_retries, 0);
  EXPECT_EQ(stats.snapshot_fallbacks, 0);
  EXPECT_EQ(stats.get_fallbacks, 0);
}

TEST(CheckContextTest, SnapshotIsReplicatedCopy) {
  static const auto kK = ContextKey<std::string>::Of("k");
  CheckContext ctx("c");
  ctx.Set(kK, "v1");
  ctx.MarkReady(1);
  auto snapshot = ctx.Snapshot();
  ctx.Set(kK, "v2");
  ctx.MarkReady(2);
  // Isolation: the checker's copy is unaffected by later main-program writes.
  EXPECT_EQ(std::get<std::string>(snapshot.at("k")), "v1");
}

TEST(CheckContextTest, ConsistentSnapshotCarriesEpoch) {
  static const auto kK = ContextKey<std::string>::Of("snap.k");
  CheckContext ctx("c");
  ctx.Set(kK, "v1");
  ctx.MarkReady(10);
  ctx.Set(kK, "v2");
  ctx.MarkReady(20);
  const auto snapshot = ctx.SnapshotConsistent();
  EXPECT_EQ(snapshot.epoch, 2u);
  EXPECT_EQ(snapshot.last_update, 20);
  EXPECT_EQ(std::get<std::string>(snapshot.values.at("snap.k")), "v2");
}

TEST(CheckContextTest, InvalidateDropsReady) {
  CheckContext ctx("c");
  ctx.MarkReady(1);
  ctx.Invalidate();
  EXPECT_FALSE(ctx.ready());
}

TEST(CheckContextTest, DumpRendersAllValuesWithTypeTags) {
  static const auto kN = ContextKey<int64_t>::Of("n");
  static const auto kName = ContextKey<std::string>::Of("name");
  CheckContext ctx("c");
  ctx.Set(kN, 7);
  ctx.Set(kName, "sst");
  ctx.MarkReady(1);
  const std::string dump = ctx.Dump();
  EXPECT_NE(dump.find("n=i:7"), std::string::npos);
  EXPECT_NE(dump.find("name=s:sst"), std::string::npos);
}

// ------------------------------------------------------------------- hooks

TEST(HookSetTest, UnarmedHookIsInert) {
  HookSet hooks;
  HookSite* site = hooks.Site("kvs.flusher.write");
  int fills = 0;
  site->Fire([&](CheckContext&) { ++fills; });
  EXPECT_EQ(fills, 0);
  EXPECT_FALSE(site->armed());
  EXPECT_EQ(site->fired_count(), 0);
}

TEST(HookSetTest, ArmedHookPopulatesContext) {
  static const auto kFile = ContextKey<std::string>::Of("hook.file");
  HookSet hooks;
  hooks.Arm("kvs.flusher.write", "flush_ctx");
  HookSite* site = hooks.Site("kvs.flusher.write");
  site->Fire([&](CheckContext& ctx) {
    ctx.Set(kFile, "/sst/9");
    ctx.MarkReady(77);
  });
  CheckContext* ctx = hooks.Context("flush_ctx");
  EXPECT_TRUE(ctx->ready());
  EXPECT_EQ(*ctx->Get(kFile), "/sst/9");
  EXPECT_EQ(site->fired_count(), 1);
}

TEST(HookSetTest, DisarmStopsSync) {
  HookSet hooks;
  hooks.Arm("s", "c");
  hooks.Disarm("s");
  int fills = 0;
  hooks.Site("s")->Fire([&](CheckContext&) { ++fills; });
  EXPECT_EQ(fills, 0);
  EXPECT_EQ(hooks.ArmedCount(), 0);
}

TEST(HookSetTest, StablePointersAndNames) {
  HookSet hooks;
  HookSite* a = hooks.Site("x");
  hooks.Site("y");
  EXPECT_EQ(hooks.Site("x"), a);
  EXPECT_EQ(hooks.SiteNames().size(), 2u);
}

// ---------------------------------------------------------------- checkers

TEST(ProbeCheckerTest, PassAndFail) {
  std::atomic<bool> healthy{true};
  ProbeChecker checker("probe", "kvs", [&] {
    return healthy ? Status::Ok() : TimeoutError("SET timed out");
  });
  EXPECT_EQ(checker.Check().outcome, CheckOutcome::kPass);
  healthy = false;
  const CheckResult result = checker.Check();
  ASSERT_EQ(result.outcome, CheckOutcome::kFail);
  EXPECT_EQ(result.signature->type, FailureType::kLivenessTimeout);
  // Probes see only the public API: localization stops at the process level.
  EXPECT_EQ(result.signature->location.Level(), LocalizationLevel::kComponent);
  EXPECT_TRUE(result.signature->impact_confirmed);  // probe == client impact
}

TEST(SignalCheckerTest, DebouncesTransientSpikes) {
  double value = 0;
  SignalChecker checker("queue_depth", "kvs.listener", "queue",
                        [&] { return value; }, [](double v) { return v < 100; },
                        /*consecutive_needed=*/3);
  value = 500;  // spike
  EXPECT_EQ(checker.Check().outcome, CheckOutcome::kPass);  // 1st violation
  value = 5;
  EXPECT_EQ(checker.Check().outcome, CheckOutcome::kPass);  // reset
  value = 500;
  EXPECT_EQ(checker.Check().outcome, CheckOutcome::kPass);
  EXPECT_EQ(checker.Check().outcome, CheckOutcome::kPass);
  const CheckResult result = checker.Check();  // 3rd consecutive → alarm
  ASSERT_EQ(result.outcome, CheckOutcome::kFail);
  EXPECT_EQ(result.signature->location.component, "kvs.listener");
}

TEST(MimicCheckerTest, RefusesUnreadyContext) {
  CheckContext ctx("c");
  int bodies = 0;
  MimicChecker checker("m", "kvs.flusher", &ctx,
                       [&](const CheckContext&, MimicChecker&) {
                         ++bodies;
                         return CheckResult::Pass();
                       });
  EXPECT_EQ(checker.Check().outcome, CheckOutcome::kContextNotReady);
  EXPECT_EQ(bodies, 0);  // the paper's spurious-report guard
  ctx.MarkReady(1);
  EXPECT_EQ(checker.Check().outcome, CheckOutcome::kPass);
  EXPECT_EQ(bodies, 1);
}

TEST(MimicCheckerTest, BodySeesContextValues) {
  static const auto kFile = ContextKey<std::string>::Of("file");
  CheckContext ctx("c");
  ctx.Set(kFile, "/sst/3");
  ctx.MarkReady(1);
  MimicChecker checker("m", "kvs.flusher", &ctx,
                       [&](const CheckContext& c, MimicChecker& self) {
                         EXPECT_EQ(*c.Get<std::string>("file"), "/sst/3");
                         SourceLocation loc{"kvs.flusher", "Flush", "disk.write", 4};
                         return CheckResult::Fail(self.MakeSignature(
                             FailureType::kOperationError, loc, StatusCode::kIoError,
                             "write failed", c.Dump()));
                       });
  const CheckResult result = checker.Check();
  ASSERT_EQ(result.outcome, CheckOutcome::kFail);
  EXPECT_EQ(result.signature->location.Level(), LocalizationLevel::kOperation);
  EXPECT_NE(result.signature->context_dump.find("/sst/3"), std::string::npos);
}

// -------------------------------------------------------------- signatures

TEST(FailureSignatureTest, LocalizationLevels) {
  SourceLocation loc;
  EXPECT_EQ(loc.Level(), LocalizationLevel::kProcess);
  loc.component = "kvs.indexer";
  EXPECT_EQ(loc.Level(), LocalizationLevel::kComponent);
  loc.function = "Insert";
  EXPECT_EQ(loc.Level(), LocalizationLevel::kFunction);
  loc.op_site = "index.insert";
  EXPECT_EQ(loc.Level(), LocalizationLevel::kOperation);
}

TEST(FailureSignatureTest, ToStringMentionsEverything) {
  FailureSignature sig;
  sig.type = FailureType::kLivenessTimeout;
  sig.checker_name = "flush_checker";
  sig.location = {"kvs.flusher", "Flush", "disk.write", 7};
  sig.code = StatusCode::kTimeout;
  sig.message = "stuck";
  const std::string text = sig.ToString();
  EXPECT_NE(text.find("LIVENESS_TIMEOUT"), std::string::npos);
  EXPECT_NE(text.find("flush_checker"), std::string::npos);
  EXPECT_NE(text.find("disk.write"), std::string::npos);
}

// ------------------------------------------------------------------ driver

class RecordingListener : public FailureListener {
 public:
  void OnFailure(const FailureSignature& sig) override {
    std::lock_guard<std::mutex> lock(mu_);
    signatures_.push_back(sig);
  }
  std::vector<FailureSignature> signatures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return signatures_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<FailureSignature> signatures_;
};

CheckerOptions FastChecker() {
  CheckerOptions options;
  options.interval = Ms(10);
  options.timeout = Ms(60);
  return options;
}

TEST(WatchdogDriverTest, RunsCheckersPeriodically) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  std::atomic<int> runs{0};
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "p", "sys", [&] { ++runs; return Status::Ok(); }, FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(100));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_GE(runs.load(), 3);
  const CheckerStats stats = driver.StatsFor("p");
  EXPECT_EQ(stats.runs, stats.passes);
  EXPECT_EQ(stats.fails, 0);
}

TEST(WatchdogDriverTest, ReportsFailuresToListeners) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  RecordingListener listener;
  driver.AddListener(&listener);
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "p", "sys", [] { return IoError("broken"); }, FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  ASSERT_TRUE(driver.WaitForFailure(Sec(2)));
  EXPECT_TRUE(driver.Stop().ok());
  ASSERT_FALSE(listener.signatures().empty());
  EXPECT_EQ(listener.signatures()[0].checker_name, "p");
}

TEST(WatchdogDriverTest, HungCheckerBecomesLivenessSignatureWithPinpoint) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec hang;
  hang.id = "h";
  hang.site_pattern = "net.send.follower";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);

  WatchdogDriver::Options options;
  options.release_on_stop = [&] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);
  auto* checker_ptr = driver.AddChecker(std::make_unique<MimicChecker>(
      "replication_checker", "kvs.replication", nullptr,
      [&](const CheckContext&, MimicChecker& self) {
        // Fate sharing: publish the op, then block exactly like the program.
        self.SetCurrentOp({"kvs.replication", "ReplicateBatch", "net.send.follower", 20});
        injector.Act("net.send.follower");
        return CheckResult::Pass();
      },
      FastChecker()));
  (void)checker_ptr;
  ASSERT_TRUE(driver.Start().ok());
  ASSERT_TRUE(driver.WaitForFailure(Sec(2)));
  const auto failure = *driver.FirstFailure();
  EXPECT_EQ(failure.type, FailureType::kLivenessTimeout);
  EXPECT_EQ(failure.location.op_site, "net.send.follower");
  EXPECT_EQ(failure.location.function, "ReplicateBatch");
  EXPECT_EQ(failure.location.Level(), LocalizationLevel::kOperation);
  EXPECT_TRUE(driver.Stop().ok());  // releases the parked checker via release_on_stop
  EXPECT_GE(driver.StatsFor("replication_checker").timeouts, 1);
}

TEST(WatchdogDriverTest, CheckerCrashIsIsolatedAndReported) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  driver.AddChecker(std::make_unique<MimicChecker>(
      "crashy", "kvs.indexer", nullptr,
      [](const CheckContext&, MimicChecker&) -> CheckResult {
        throw std::runtime_error("segfault stand-in");
      },
      FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  ASSERT_TRUE(driver.WaitForFailure(Sec(2)));
  EXPECT_TRUE(driver.Stop().ok());
  const auto failure = *driver.FirstFailure();
  EXPECT_EQ(failure.type, FailureType::kCheckerCrash);
  EXPECT_NE(failure.message.find("segfault stand-in"), std::string::npos);
  EXPECT_GE(driver.StatsFor("crashy").crashes, 1);
}

TEST(WatchdogDriverTest, DedupCollapsesRepeatedSignatures) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.dedup_window = Sec(10);
  WatchdogDriver driver(clock, options);
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "p", "sys", [] { return IoError("same failure every time"); }, FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(150));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_EQ(driver.Failures().size(), 1u);  // one report despite ~10 failing runs
  EXPECT_GE(driver.deduped_count(), 3);
}

TEST(WatchdogDriverTest, ValidationProbeConfirmsImpact) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.validation_probe = [] { return TimeoutError("client request also fails"); };
  WatchdogDriver driver(clock, options);
  driver.AddChecker(std::make_unique<MimicChecker>(
      "m", "kvs.flusher", nullptr,
      [](const CheckContext&, MimicChecker& self) {
        return CheckResult::Fail(self.MakeSignature(
            FailureType::kOperationError, {"kvs.flusher", "Flush", "disk.write", 1},
            StatusCode::kIoError, "mimicked write failed"));
      },
      FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  ASSERT_TRUE(driver.WaitForFailure(Sec(2)));
  EXPECT_TRUE(driver.Stop().ok());
  const auto failure = *driver.FirstFailure();
  EXPECT_TRUE(failure.validation_ran);
  EXPECT_TRUE(failure.impact_confirmed);
}

TEST(WatchdogDriverTest, UnconfirmedAlarmSuppressedWhenConfigured) {
  RealClock& clock = RealClock::Instance();
  RecordingListener listener;
  WatchdogDriver::Options options;
  options.validation_probe = [] { return Status::Ok(); };  // clients are fine
  options.suppress_unconfirmed = true;
  WatchdogDriver driver(clock, options);
  driver.AddListener(&listener);
  driver.AddChecker(std::make_unique<MimicChecker>(
      "m", "kvs.flusher", nullptr,
      [](const CheckContext&, MimicChecker& self) {
        return CheckResult::Fail(self.MakeSignature(
            FailureType::kOperationError, {"kvs.flusher", "Flush", "disk.write", 1},
            StatusCode::kIoError, "transient"));
      },
      FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(200));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_GE(driver.suppressed_count(), 1);
  EXPECT_TRUE(listener.signatures().empty());          // suppressed from listeners
  ASSERT_FALSE(driver.Failures().empty());             // still recorded, flagged
  EXPECT_FALSE(driver.Failures()[0].impact_confirmed);
}

TEST(WatchdogDriverTest, RecoveryActionInvokedOnMatchingComponent) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  std::atomic<int> recovered{0};
  CallbackRecovery recovery([&](const FailureSignature&) { ++recovered; });
  driver.AddRecoveryAction("kvs.flusher", &recovery);
  std::atomic<int> other{0};
  CallbackRecovery other_recovery([&](const FailureSignature&) { ++other; });
  driver.AddRecoveryAction("kvs.indexer", &other_recovery);
  driver.AddChecker(std::make_unique<MimicChecker>(
      "m", "kvs.flusher", nullptr,
      [](const CheckContext&, MimicChecker& self) {
        return CheckResult::Fail(self.MakeSignature(
            FailureType::kOperationError, {"kvs.flusher", "Flush", "disk.write", 1},
            StatusCode::kIoError, "x"));
      },
      FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  ASSERT_TRUE(driver.WaitForFailure(Sec(2)));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_GE(recovered.load(), 1);
  EXPECT_EQ(other.load(), 0);
}

TEST(WatchdogDriverTest, NotReadyContextNeverRunsBody) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  CheckContext ctx("never_ready");
  std::atomic<int> bodies{0};
  driver.AddChecker(std::make_unique<MimicChecker>(
      "m", "kvs.flusher", &ctx,
      [&](const CheckContext&, MimicChecker&) {
        ++bodies;
        return CheckResult::Pass();
      },
      FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(80));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_EQ(bodies.load(), 0);
  EXPECT_GE(driver.StatsFor("m").context_not_ready, 2);
}

TEST(WatchdogDriverTest, HungCheckerSuspendedNotRestacked) {
  // While one execution is stuck, the driver must not pile further threads
  // onto the same hung op.
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec hang;
  hang.id = "h";
  hang.site_pattern = "op";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);
  WatchdogDriver::Options options;
  options.release_on_stop = [&] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);
  std::atomic<int> entries{0};
  driver.AddChecker(std::make_unique<MimicChecker>(
      "m", "sys", nullptr,
      [&](const CheckContext&, MimicChecker&) {
        ++entries;
        injector.Act("op");
        return CheckResult::Pass();
      },
      FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(300));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_EQ(entries.load(), 1);  // exactly one execution entered the hang
}

TEST(WatchdogDriverTest, HungProbeLivenessSignatureNamesItsComponent) {
  // A probe publishes no op, so its hang signature falls back to the
  // checker's component: component-level, and the same bytes as when probes
  // published their component as the op on every run.
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec hang;
  hang.id = "h";
  hang.site_pattern = "api.get";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);
  WatchdogDriver::Options options;
  options.release_on_stop = [&] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "api_probe", "kvs.api", [&] { return injector.Act("api.get"); }, FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  ASSERT_TRUE(driver.WaitForFailure(Sec(2)));
  const FailureSignature failure = *driver.FirstFailure();
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_EQ(failure.type, FailureType::kLivenessTimeout);
  EXPECT_EQ(failure.location.component, "kvs.api");
  EXPECT_EQ(failure.location.Level(), LocalizationLevel::kComponent);
  EXPECT_EQ(failure.ToString(),
            "[LIVENESS_TIMEOUT] checker=api_probe loc=kvs.api code=TIMEOUT "
            "msg=\"checker exceeded 60 ms deadline\"");
}

TEST(WatchdogDriverTest, LoneCheckerRunsAtItsIntervalWithAFarDeadline) {
  // A passing batch wakes the scheduler only when its next run is due before
  // the planned wake. With one checker nothing else is on the wheel, so while
  // it runs the planned wake is its 5 s deadline (capped at 250 ms): a lost
  // completion wake would space its runs 250 ms apart, and rescheduling from
  // the reap instead of the run's end about 20 ms apart.
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  std::vector<TimeNs> starts;  // runs are serialized; read after Stop()
  starts.reserve(1000);
  CheckerOptions options;
  options.interval = Ms(10);
  options.timeout = Sec(5);
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "lone", "sys",
      [&] {
        starts.push_back(clock.NowNs());
        return Status::Ok();
      },
      options));
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(500));
  EXPECT_TRUE(driver.Stop().ok());
  ASSERT_GE(starts.size(), 5u);
  std::vector<DurationNs> gaps;
  for (size_t i = 1; i < starts.size(); ++i) {
    gaps.push_back(starts[i] - starts[i - 1]);
  }
  std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
  EXPECT_LT(gaps[gaps.size() / 2], Ms(15)) << starts.size() << " runs in 500 ms";
  EXPECT_EQ(driver.StatsFor("lone").passes, driver.StatsFor("lone").runs);
}

TEST(WatchdogDriverTest, FailureReachesListenerWithinATickOfItsRun) {
  // A failed run wakes the scheduler at once, even though nothing is due on
  // the wheel for 10 s and the scheduler planned to sleep 250 ms.
  RealClock& clock = RealClock::Instance();
  constexpr DurationNs kTick = Ms(50);
  WatchdogDriver::Options options;
  options.wheel_tick = kTick;
  WatchdogDriver driver(clock, options);
  std::atomic<TimeNs> run_end{0};
  struct StampingListener : FailureListener {
    void OnFailure(const FailureSignature&) override {
      received.store(RealClock::Instance().NowNs());
    }
    std::atomic<TimeNs> received{0};
  } listener;
  driver.AddListener(&listener);
  CheckerOptions copts;
  copts.interval = Sec(10);
  copts.timeout = Sec(20);
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "slow_fail", "sys",
      [&] {
        clock.SleepFor(Ms(30));  // the scheduler is asleep by now
        run_end.store(clock.NowNs());
        return IoError("broken");
      },
      copts));
  ASSERT_TRUE(driver.Start().ok());
  ASSERT_TRUE(driver.WaitForFailure(Sec(2)));
  EXPECT_TRUE(driver.Stop().ok());
  ASSERT_GT(run_end.load(), 0);
  ASSERT_GT(listener.received.load(), 0);
  EXPECT_LT(listener.received.load() - run_end.load(), kTick);
}

TEST(WatchdogDriverTest, PauseAndResumeChecker) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  std::atomic<int> runs{0};
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "p", "sys", [&] { ++runs; return Status::Ok(); }, FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(60));
  EXPECT_TRUE(driver.TrySetCheckerEnabled("p", false).ok());
  EXPECT_FALSE(driver.IsCheckerEnabled("p"));
  clock.SleepFor(Ms(30));  // let in-flight runs drain
  const int frozen = runs.load();
  clock.SleepFor(Ms(80));
  EXPECT_LE(runs.load(), frozen + 1);  // at most one straggler
  EXPECT_TRUE(driver.TrySetCheckerEnabled("p", true).ok());
  clock.SleepFor(Ms(80));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_GT(runs.load(), frozen + 1);  // resumed
}

TEST(WatchdogDriverTest, TrySetCheckerEnabledUnknownName) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "p", "sys", [] { return Status::Ok(); }, FastChecker()));
  const Status status = driver.TrySetCheckerEnabled("no-such-checker", false);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(driver.IsCheckerEnabled("p"));
}

TEST(WatchdogDriverTest, AddCheckerRejectsDuplicateName) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  std::atomic<int> first_runs{0};
  std::atomic<int> second_runs{0};
  EXPECT_NE(driver.AddChecker(std::make_unique<ProbeChecker>(
                "dup", "sys", [&] { ++first_runs; return Status::Ok(); }, FastChecker())),
            nullptr);
  // A second same-named checker registers nothing: no hidden slot whose body
  // runs but that StatsFor / TrySetCheckerEnabled / ShardOf cannot reach.
  EXPECT_EQ(driver.AddChecker(std::make_unique<ProbeChecker>(
                "dup", "sys", [&] { ++second_runs; return Status::Ok(); }, FastChecker())),
            nullptr);
  EXPECT_EQ(driver.checker_count(), 1);
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(60));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_GT(first_runs.load(), 0);
  EXPECT_EQ(second_runs.load(), 0);
  EXPECT_EQ(driver.StatsFor("dup").runs, first_runs.load());
}

TEST(WatchdogDriverTest, StartStopLifecycleStatuses) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  driver.AddChecker(std::make_unique<ProbeChecker>("p", "s", [] { return Status::Ok(); },
                                                   FastChecker()));
  ASSERT_TRUE(driver.Start().ok());
  const Status double_start = driver.Start();
  EXPECT_EQ(double_start.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(driver.running());
  EXPECT_TRUE(driver.Stop().ok());
  const Status double_stop = driver.Stop();
  EXPECT_EQ(double_stop.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(driver.running());
  EXPECT_EQ(driver.checker_count(), 1);
  // The driver is one-shot: a stopped driver cannot be restarted.
  EXPECT_EQ(driver.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(WatchdogDriverTest, StopBeforeStartReturnsFailedPrecondition) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  EXPECT_EQ(driver.Stop().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------- CheckerBuilder

TEST(CheckerBuilderTest, BuildsMimicChecker) {
  CheckContext ctx("c");
  auto built = CheckerBuilder("flush-mimic")
                   .Component("kvs.flusher")
                   .Interval(Ms(50))
                   .Deadline(Ms(200))
                   .WithContext(&ctx)
                   .Mimic([](const CheckContext&, MimicChecker&) {
                     return CheckResult::Pass();
                   })
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ((*built)->name(), "flush-mimic");
  EXPECT_EQ((*built)->component(), "kvs.flusher");
  EXPECT_EQ((*built)->type(), CheckerType::kMimic);
  EXPECT_EQ((*built)->options().interval, Ms(50));
  EXPECT_EQ((*built)->options().timeout, Ms(200));
}

TEST(CheckerBuilderTest, ContextFactoryResolvedAtBuild) {
  HookSet hooks;
  auto built = CheckerBuilder("m")
                   .ContextFactory([&] { return hooks.Context("late_ctx"); })
                   .Mimic([](const CheckContext&, MimicChecker&) {
                     return CheckResult::Pass();
                   })
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status();
  // Null factory result is a typed error, not a crash.
  auto bad = CheckerBuilder("m2")
                 .ContextFactory([]() -> CheckContext* { return nullptr; })
                 .Mimic([](const CheckContext&, MimicChecker&) {
                   return CheckResult::Pass();
                 })
                 .Build();
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckerBuilderTest, RejectsMisconfiguration) {
  const auto mimic_body = [](const CheckContext&, MimicChecker&) {
    return CheckResult::Pass();
  };
  const auto probe_body = [] { return Status::Ok(); };
  CheckContext ctx("c");

  // Empty name.
  EXPECT_EQ(CheckerBuilder("").Probe(probe_body).Build().status().code(),
            StatusCode::kInvalidArgument);
  // No body.
  EXPECT_EQ(CheckerBuilder("x").Build().status().code(), StatusCode::kInvalidArgument);
  // Two bodies.
  EXPECT_EQ(CheckerBuilder("x").Probe(probe_body).Mimic(mimic_body).Build().status().code(),
            StatusCode::kInvalidArgument);
  // Non-positive interval / deadline / debounce.
  EXPECT_EQ(CheckerBuilder("x").Probe(probe_body).Interval(0).Build().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckerBuilder("x").Probe(probe_body).Deadline(-1).Build().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckerBuilder("x").Probe(probe_body).Debounce(0).Build().status().code(),
            StatusCode::kInvalidArgument);
  // Probe body takes no context; mimic requires one; Debounce is probe/signal.
  EXPECT_EQ(
      CheckerBuilder("x").Probe(probe_body).WithContext(&ctx).Build().status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckerBuilder("x").Mimic(mimic_body).Build().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      CheckerBuilder("x").Mimic(mimic_body).WithContext(&ctx).Debounce(2).Build().status().code(),
      StatusCode::kInvalidArgument);
  // WithContext and ContextFactory are mutually exclusive.
  EXPECT_EQ(CheckerBuilder("x")
                .Mimic(mimic_body)
                .WithContext(&ctx)
                .ContextFactory([&] { return &ctx; })
                .Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckerBuilderTest, RegisterWithRejectsDuplicatesAndRunningDriver) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  const auto probe_body = [] { return Status::Ok(); };

  EXPECT_TRUE(CheckerBuilder("p").Probe(probe_body).RegisterWith(driver).ok());
  // Duplicate name is a typed error, not a second slot.
  EXPECT_EQ(CheckerBuilder("p").Probe(probe_body).RegisterWith(driver).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(driver.checker_count(), 1);

  ASSERT_TRUE(driver.Start().ok());
  EXPECT_EQ(CheckerBuilder("q").Probe(probe_body).RegisterWith(driver).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(driver.SetValidationProbe(probe_body, Ms(100)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(driver.Stop().ok());
}

TEST(CheckerBuilderTest, InstallsEscalationProbe) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  std::atomic<int> probes{0};
  CheckContext ctx("c");
  ctx.MarkReady(1);
  // A failing mimic escalates to the validation probe (§5.1); the probe
  // passing tags the alarm no-client-impact.
  Status status = CheckerBuilder("m")
                      .Component("kvs")
                      .Interval(Ms(5))
                      .Deadline(Ms(100))
                      .WithContext(&ctx)
                      .Mimic([](const CheckContext& c, MimicChecker& self) {
                        SourceLocation loc{"kvs", "f", "disk.write", 1};
                        return CheckResult::Fail(self.MakeSignature(
                            FailureType::kOperationError, loc, StatusCode::kIoError,
                            "boom", c.Dump()));
                      })
                      .EscalationProbe([&] {
                        ++probes;
                        return Status::Ok();
                      })
                      .RegisterWith(driver);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_TRUE(driver.Start().ok());
  ASSERT_TRUE(driver.WaitForFailure(Sec(5)));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_GT(probes.load(), 0);
  ASSERT_TRUE(driver.FirstFailure().has_value());
  EXPECT_FALSE(driver.FirstFailure()->impact_confirmed);
}

}  // namespace
}  // namespace wdg
