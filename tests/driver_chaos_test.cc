// Chaos/soak tier for the sharded driver: seeded randomized FaultPlan storms
// (hangs, delays, busy loops) against a ~100-checker fleet on fixed-size
// executor pools with per-checker static deadlines, with random fleet churn
// layered on top. The point is to prove hang isolation holds under
// adversarial load:
//
//   - every injected hang/busy-loop is abandoned exactly once (the slot
//     suspends until its drained execution completes, so a long fault window
//     never double-counts);
//   - CHECKER_CRASH and LIVENESS_TIMEOUT signatures still surface through the
//     storm — short per-checker deadlines catch hangs, long ones absorb
//     delays;
//   - after the faults clear, every pool is back at its fixed size and the
//     thread count is exact: the initial workers plus one respawn per
//     abandonment; queue delay stayed bounded;
//   - Stop() joins every thread ever spawned (no leaks, no wedged joins).
//
// Seeded (WDG_CHAOS_SEED overrides) so a failure replays exactly. Runs under
// the TSan CI leg with a bounded runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/fault/fault_injector.h"
#include "src/watchdog/builtin_checkers.h"
#include "src/watchdog/driver.h"
#include "tests/support/fault_plan.h"

namespace wdg {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("WDG_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 0));
  }
  return 0x5eed2026ULL;
}

// The chaos tier runs the *sharded* driver: every isolation property below
// must hold with two independent scheduler domains and batched dispatch, not
// just the classic single-loop configuration.
constexpr int kShards = 2;
constexpr int kWorkers = 4;  // per shard, the bench's pooled-storm pool size

WatchdogDriver::Options ChaosOptions() {
  WatchdogDriver::Options options;
  options.shards = kShards;
  options.dispatch_batch = 4;
  options.executor.workers = kWorkers;
  options.executor.queue_capacity = 512;
  return options;
}

CheckerOptions FleetChecker(DurationNs interval, DurationNs timeout,
                            DurationNs initial_delay) {
  CheckerOptions options;
  options.interval = interval;
  options.timeout = timeout;
  options.initial_delay = initial_delay;
  return options;
}

TEST(DriverChaosTest, SeededFaultStormConvergesAndIsolates) {
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE(StrFormat("WDG_CHAOS_SEED=%llu",
                         static_cast<unsigned long long>(seed)));
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock, seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  WatchdogDriver::Options options = ChaosOptions();
  options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);

  // --- fleet: 80 healthy probes + 8 hang targets + 4 delay targets
  //            + 2 busy-loop targets + 2 crashers = 96 checkers -------------
  constexpr int kProbes = 80;
  constexpr int kHangs = 8;
  constexpr int kDelays = 4;
  constexpr int kBusies = 2;
  constexpr int kCrashers = 2;
  std::vector<std::string> probe_names;
  for (int i = 0; i < kProbes; ++i) {
    std::string name = StrFormat("probe%02d", i);
    probe_names.push_back(name);
    // Probes keep a long deadline so a TSan scheduling stall can never fake
    // a timeout and skew the exactly-once abandonment accounting below.
    driver.AddChecker(std::make_unique<ProbeChecker>(
        name, "chaos.fleet", [] { return Status::Ok(); },
        FleetChecker(Ms(40), Ms(400), Ms(rng.Uniform(0, 40)))));
  }
  std::vector<std::string> hang_names;
  for (int i = 0; i < kHangs; ++i) {
    std::string name = StrFormat("hang%d", i);
    hang_names.push_back(name);
    const std::string site = StrFormat("chaos.hang.%d", i);
    driver.AddChecker(std::make_unique<MimicChecker>(
        name, "chaos.hang", nullptr,
        [&injector, site](const CheckContext&, MimicChecker&) {
          (void)injector.Act(site);
          return CheckResult::Pass();
        },
        // Short timeout: a hang must be declared (and abandoned) well inside
        // its fault window. Generous enough that a healthy trivial body never
        // trips it, even under TSan slowdown.
        FleetChecker(Ms(25), Ms(60), Ms(rng.Uniform(0, 25)))));
  }
  for (int i = 0; i < kDelays; ++i) {
    const std::string site = StrFormat("chaos.delay.%d", i);
    driver.AddChecker(std::make_unique<MimicChecker>(
        StrFormat("delay%d", i), "chaos.delay", nullptr,
        [&injector, site](const CheckContext&, MimicChecker&) {
          (void)injector.Act(site);
          return CheckResult::Pass();
        },
        FleetChecker(Ms(25), Ms(400), Ms(rng.Uniform(0, 25)))));
  }
  std::vector<std::string> busy_names;
  for (int i = 0; i < kBusies; ++i) {
    std::string name = StrFormat("busy%d", i);
    busy_names.push_back(name);
    const std::string site = StrFormat("chaos.busy.%d", i);
    driver.AddChecker(std::make_unique<MimicChecker>(
        name, "chaos.busy", nullptr,
        [&injector, site](const CheckContext&, MimicChecker&) {
          (void)injector.Act(site);
          return CheckResult::Pass();
        },
        FleetChecker(Ms(25), Ms(60), Ms(rng.Uniform(0, 25)))));
  }
  std::vector<std::string> crash_names;
  for (int i = 0; i < kCrashers; ++i) {
    std::string name = StrFormat("crash%d", i);
    crash_names.push_back(name);
    driver.AddChecker(std::make_unique<ProbeChecker>(
        name, "chaos.crash",
        []() -> Status { throw std::runtime_error("chaos-injected bug"); },
        FleetChecker(Ms(50), Ms(400), Ms(rng.Uniform(0, 50)))));
  }

  // --- randomized storm schedule: one fault window per site, overlapping ---
  FaultPlan plan(injector, clock);
  auto storm = [&](const std::string& site, FaultKind kind, DurationNs delay) {
    FaultSpec spec;
    spec.id = site;
    spec.site_pattern = site;
    spec.kind = kind;
    spec.delay = delay;
    const DurationNs at = Ms(rng.Uniform(150, 450));
    plan.InjectAt(at, spec);
    plan.RemoveAt(at + Ms(rng.Uniform(150, 300)), site);
  };
  for (int i = 0; i < kHangs; ++i) {
    storm(StrFormat("chaos.hang.%d", i), FaultKind::kHang, 0);
  }
  for (int i = 0; i < kDelays; ++i) {
    storm(StrFormat("chaos.delay.%d", i), FaultKind::kDelay, Ms(15));
  }
  for (int i = 0; i < kBusies; ++i) {
    storm(StrFormat("chaos.busy.%d", i), FaultKind::kBusyLoop, 0);
  }

  ASSERT_TRUE(driver.Start().ok());
  plan.Start();

  // Random fleet churn while the storm rages: healthy probes flap on and off
  // (disabled slots must reschedule cleanly on re-enable, even mid-storm).
  std::vector<bool> disabled(kProbes, false);
  const TimeNs churn_end = clock.NowNs() + Ms(900);
  while (clock.NowNs() < churn_end) {
    const int victim = static_cast<int>(rng.Uniform(0, kProbes - 1));
    disabled[victim] = !disabled[victim];
    ASSERT_TRUE(
        driver.TrySetCheckerEnabled(probe_names[victim], !disabled[victim]).ok());
    clock.SleepFor(Ms(30));
  }
  for (int i = 0; i < kProbes; ++i) {
    if (disabled[i]) {
      ASSERT_TRUE(driver.TrySetCheckerEnabled(probe_names[i], true).ok());
      disabled[i] = false;
    }
  }

  // Every hang and busy-loop target must surface as a LIVENESS_TIMEOUT that
  // names the stuck checker; the crashers as CHECKER_CRASH.
  for (const std::string& name : hang_names) {
    EXPECT_TRUE(driver.WaitForFailure(Sec(10), [&name](const FailureSignature& sig) {
      return sig.type == FailureType::kLivenessTimeout && sig.checker_name == name;
    })) << "no liveness signature for " << name;
  }
  for (const std::string& name : busy_names) {
    EXPECT_TRUE(driver.WaitForFailure(Sec(10), [&name](const FailureSignature& sig) {
      return sig.type == FailureType::kLivenessTimeout && sig.checker_name == name;
    })) << "no liveness signature for " << name;
  }
  for (const std::string& name : crash_names) {
    EXPECT_TRUE(driver.WaitForFailure(Sec(10), [&name](const FailureSignature& sig) {
      return sig.type == FailureType::kCheckerCrash && sig.checker_name == name;
    })) << "no crash signature for " << name;
  }

  // Wait out the remainder of the storm (faults are removed on schedule, so
  // abandoned executions drain), then let the fleet quiesce.
  const TimeNs plan_deadline = clock.NowNs() + Sec(10);
  while (!plan.finished() && clock.NowNs() < plan_deadline) {
    clock.SleepFor(Ms(20));
  }
  ASSERT_TRUE(plan.finished());
  ASSERT_EQ(injector.ActiveFaultIds().size(), 0u);
  clock.SleepFor(Ms(300));
  const DriverMetricsSnapshot after = driver.DriverMetrics();
  ASSERT_EQ(after.shard_views.size(), static_cast<size_t>(kShards));

  // Exact thread accounting: every pool is at its fixed size, and the only
  // threads ever created are the initial workers plus one replacement per
  // abandoned worker.
  EXPECT_EQ(after.pool_workers, kShards * kWorkers);
  EXPECT_EQ(after.threads_spawned, kShards * kWorkers + after.workers_abandoned);

  // Exactly-once hang isolation: one abandonment (and one timeout) per hung
  // site, no matter how long its fault window lasted — the suspended slot
  // can't re-hang until its drained execution completes.
  EXPECT_EQ(after.workers_abandoned, kHangs + kBusies);
  EXPECT_EQ(after.timeouts, kHangs + kBusies);
  for (const std::string& name : hang_names) {
    EXPECT_EQ(driver.StatsFor(name).timeouts, 1) << name;
  }
  for (const std::string& name : busy_names) {
    EXPECT_EQ(driver.StatsFor(name).timeouts, 1) << name;
  }
  // Delay faults stayed under their checkers' deadlines: latency, not a hang.
  for (int i = 0; i < kDelays; ++i) {
    EXPECT_EQ(driver.StatsFor(StrFormat("delay%d", i)).timeouts, 0);
  }

  // Queue delay stayed bounded through the storm (generous: TSan leg).
  EXPECT_LT(after.queue_delay_p99_ns, static_cast<double>(Ms(250)));

  EXPECT_TRUE(driver.Stop().ok());  // release_on_stop clears faults; every join must complete
  EXPECT_EQ(injector.parked_thread_count(), 0);

  // Stats coherence for the whole fleet after the storm.
  for (const std::string& name : driver.CheckerNames()) {
    const CheckerStats stats = driver.StatsFor(name);
    EXPECT_EQ(stats.runs, stats.passes + stats.fails + stats.context_not_ready +
                              stats.timeouts + stats.crashes)
        << name;
  }
}

}  // namespace
}  // namespace wdg
