// Scale and shutdown behavior of the scheduler/executor split: hundreds of
// checkers must share a small worker pool with bounded queue delay and no
// thread-per-execution explosion; an injected hang must abandon exactly one
// worker (and respawn its replacement); Stop() must join cleanly even while
// the submission queue is saturated. Runs under the TSan CI leg.
#include <gtest/gtest.h>

#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/fault/fault_injector.h"
#include "src/watchdog/builder.h"
#include "src/watchdog/builtin_checkers.h"
#include "src/watchdog/context.h"
#include "src/watchdog/driver.h"

// --- allocation-count guard plumbing --------------------------------------
// Replacing the global allocators is binary-wide; the counter only gates the
// steady-state window in SteadyStateDispatchIsAllocationFree. Counting (not
// forbidding) keeps every other test unaffected. While armed, the first few
// allocations dump raw stacks to stderr so a guard failure names its leak
// instead of just counting it (backtrace_symbols_fd writes straight to the
// fd — no malloc inside the hook).
static std::atomic<int64_t> g_heap_allocs{0};
static std::atomic<int> g_alloc_trace_budget{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (g_alloc_trace_budget.load(std::memory_order_relaxed) > 0) {
    static thread_local bool in_trace = false;
    if (!in_trace &&
        g_alloc_trace_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
      in_trace = true;
      void* frames[24];
      const int depth = backtrace(frames, 24);
      backtrace_symbols_fd(frames, depth, 2);
      (void)!write(2, "---- alloc in guarded window ----\n", 34);
      in_trace = false;
    }
  }
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) {
    return ptr;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line on purpose: inlined into a caller, `free` would meet a pointer
// GCC tracks as `new`-allocated and trip -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete[](void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}

namespace wdg {
namespace {

CheckerOptions ScaleChecker(DurationNs initial_delay = 0) {
  CheckerOptions options;
  options.interval = Ms(50);
  options.timeout = Ms(400);
  options.initial_delay = initial_delay;
  return options;
}

TEST(DriverScaleTest, HundredsOfCheckersShareASmallPool) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.executor.workers = 4;
  options.executor.queue_capacity = 512;
  WatchdogDriver driver(clock, options);

  constexpr int kCheckers = 220;
  std::atomic<int64_t> total_runs{0};
  for (int i = 0; i < kCheckers; ++i) {
    // Staggered starts spread the fleet across the interval instead of
    // slamming the queue with 220 simultaneous submissions every period.
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("p%03d", i), "scale",
        [&total_runs] {
          total_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        ScaleChecker(/*initial_delay=*/Ms(i % 50))));
  }
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(600));
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_TRUE(driver.Stop().ok());

  // Every checker got scheduled, repeatedly.
  EXPECT_GE(total_runs.load(), kCheckers * 2);
  for (const std::string& name : driver.CheckerNames()) {
    EXPECT_GE(driver.StatsFor(name).runs, 1) << name;
  }
  // The whole fleet ran on the fixed pool: no thread-per-execution growth.
  EXPECT_EQ(metrics.pool_workers, 4);
  EXPECT_EQ(metrics.threads_spawned, 4);
  EXPECT_EQ(metrics.workers_abandoned, 0);
  // Queue delay stays bounded (generous ceiling: this also runs under TSan).
  EXPECT_LT(metrics.queue_delay_p99_ns, static_cast<double>(Ms(300)));
  EXPECT_TRUE(driver.Failures().empty());
}

TEST(DriverScaleTest, InjectedHangAbandonsExactlyOneWorkerAndRespawns) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec hang;
  hang.id = "stuck";
  hang.site_pattern = "scale.op";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);

  WatchdogDriver::Options options;
  options.executor.workers = 3;
  options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);

  CheckerOptions hung_options;
  hung_options.interval = Ms(20);
  hung_options.timeout = Ms(80);
  driver.AddChecker(std::make_unique<MimicChecker>(
      "hung", "scale", nullptr,
      [&injector](const CheckContext&, MimicChecker&) {
        (void)injector.Act("scale.op");
        return CheckResult::Pass();
      },
      hung_options));
  std::atomic<int64_t> healthy_runs{0};
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "healthy", "scale",
      [&healthy_runs] {
        healthy_runs.fetch_add(1, std::memory_order_relaxed);
        return Status::Ok();
      },
      ScaleChecker()));
  ASSERT_TRUE(driver.Start().ok());

  ASSERT_TRUE(driver.WaitForFailure(Sec(5), [](const FailureSignature& sig) {
    return sig.type == FailureType::kLivenessTimeout && sig.checker_name == "hung";
  }));
  clock.SleepFor(Ms(100));  // let the respawned worker settle in
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  const int64_t runs_at_detect = healthy_runs.load();
  clock.SleepFor(Ms(150));

  // Exactly one worker was parked; one replacement thread restored capacity.
  EXPECT_EQ(metrics.workers_abandoned, 1);
  EXPECT_EQ(metrics.threads_spawned, 3 + 1);
  EXPECT_EQ(metrics.timeouts, 1);
  // The pool kept serving the healthy checker while one worker hangs.
  EXPECT_GT(healthy_runs.load(), runs_at_detect);
  EXPECT_TRUE(driver.Stop().ok());  // release_on_stop unblocks the hang; joins must not wedge
  EXPECT_EQ(injector.parked_thread_count(), 0);
}

TEST(DriverScaleTest, StopUnderSaturatedQueueJoinsCleanly) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.executor.workers = 2;
  options.executor.queue_capacity = 4;  // far smaller than the fleet
  // One pool task per checker: 64 tasks against a queue of 4. Batched 16 to a
  // task, a round is exactly 4 tasks and the queue need never push back.
  options.dispatch_batch = 1;
  WatchdogDriver driver(clock, options);

  constexpr int kCheckers = 64;
  for (int i = 0; i < kCheckers; ++i) {
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("sat%02d", i), "scale",
        [&clock] {
          clock.SleepFor(Ms(2));  // keep workers busy so the queue stays full
          return Status::Ok();
        },
        ScaleChecker()));
  }
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(120));
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_TRUE(driver.Stop().ok());  // must discard queued work and join without deadlock
  EXPECT_FALSE(driver.running());

  // The tiny queue actually pushed back — and backpressure never grew threads.
  EXPECT_GT(metrics.queue_rejections, 0);
  EXPECT_EQ(metrics.threads_spawned, 2);
  // Stats stay coherent: a run either completed with an outcome or was
  // un-counted when the queue was discarded at Stop.
  for (const std::string& name : driver.CheckerNames()) {
    const CheckerStats stats = driver.StatsFor(name);
    EXPECT_EQ(stats.runs, stats.passes + stats.fails + stats.context_not_ready +
                              stats.timeouts + stats.crashes)
        << name;
  }
}

TEST(DriverScaleTest, ZeroWorkersClampsToOneAndStillChecks) {
  // A pool of zero would start no threads: batches would queue forever and no
  // deadline would ever start, so checking would be silently off.
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.executor.workers = 0;
  WatchdogDriver driver(clock, options);
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "zero", "scale", [] { return Status::Ok(); }, ScaleChecker()));
  ASSERT_TRUE(driver.Start().ok());
  const TimeNs deadline = clock.NowNs() + Sec(5);
  while (driver.StatsFor("zero").passes < 1 && clock.NowNs() < deadline) {
    clock.SleepFor(Ms(10));
  }
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_GE(driver.StatsFor("zero").passes, 1);
  EXPECT_EQ(metrics.pool_workers, 1);
}

// --- fleet-scale scheduling: shards, batches, subscription epochs ---------

TEST(DriverShardingTest, ShardedFleetHonorsAffinityAndBoundsWorkers) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.shards = 4;
  options.executor.workers = 2;
  options.executor.queue_capacity = 1024;
  options.dispatch_batch = 8;
  WatchdogDriver driver(clock, options);

  constexpr int kCheckers = 400;
  constexpr int kPinned = 100;  // explicit affinity; the rest hash
  std::atomic<int64_t> total_runs{0};
  for (int i = 0; i < kCheckers; ++i) {
    CheckerOptions copts = ScaleChecker(/*initial_delay=*/Ms(i % 50));
    if (i < kPinned) {
      copts.shard_affinity = i % 4;
    }
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("sh%03d", i), "scale",
        [&total_runs] {
          total_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(600));
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_TRUE(driver.Stop().ok());

  EXPECT_GE(total_runs.load(), kCheckers * 2);
  // Explicit affinity is honored exactly; hashed checkers land on some shard.
  for (int i = 0; i < kPinned; ++i) {
    EXPECT_EQ(driver.ShardOf(StrFormat("sh%03d", i)), i % 4) << i;
  }
  for (int i = kPinned; i < kCheckers; ++i) {
    const int shard = driver.ShardOf(StrFormat("sh%03d", i));
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
  }
  // Worker count is bounded by shards x pool size; every shard pulled weight.
  EXPECT_EQ(metrics.shards, 4);
  EXPECT_LE(metrics.pool_workers, 4 * 2);
  ASSERT_EQ(metrics.shard_views.size(), 4u);
  for (const DriverMetricsSnapshot::ShardView& view : metrics.shard_views) {
    EXPECT_GT(view.dispatched, 0);
  }
  // Batched dispatch amortizes the queue: never more pool tasks than checks.
  EXPECT_GT(metrics.batches_dispatched, 0);
  EXPECT_LE(metrics.batches_dispatched, metrics.executions_dispatched);
  EXPECT_LT(metrics.queue_delay_p99_ns, static_cast<double>(Ms(300)));
  EXPECT_TRUE(driver.Failures().empty());
}

// The churn satellite: deschedule and re-add a 10k-checker fleet mid-run.
// Lazy deletion must hold both invariants: no stale wheel generation ever
// fires a descheduled checker, and superseded entries are reclaimed at pop
// time instead of accumulating (no wheel-slot leaks).
//
// The invariants are fleet-size independent, and sanitizer slowdown on the
// scheduler hot path would blow the ctest budget at the full 10k, so
// sanitized builds churn a smaller fleet.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || \
    __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
constexpr int kChurnFleet = kSanitized ? 2000 : 10000;

TEST(DriverShardingTest, TenThousandCheckerChurnNoStaleFiresNoWheelLeaks) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.shards = 8;
  options.executor.workers = 2;
  options.executor.queue_capacity = 4096;
  options.dispatch_batch = 16;
  options.per_checker_metrics = false;  // 10k histograms would swamp the test
  WatchdogDriver driver(clock, options);

  std::atomic<int64_t> total_runs{0};
  std::vector<std::string> names;
  names.reserve(kChurnFleet);
  for (int i = 0; i < kChurnFleet; ++i) {
    CheckerOptions copts;
    copts.interval = Ms(100);
    copts.timeout = Sec(5);
    copts.initial_delay = Ms(i % 100);
    names.push_back(StrFormat("churn%05d", i));
    driver.AddChecker(std::make_unique<ProbeChecker>(
        names.back(), "scale",
        [&total_runs] {
          total_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  ASSERT_TRUE(driver.Start().ok());
  const TimeNs warm_deadline = clock.NowNs() + Sec(60);
  while (driver.DriverMetrics().executions_completed < kChurnFleet &&
         clock.NowNs() < warm_deadline) {
    clock.SleepFor(Ms(20));
  }
  ASSERT_GE(driver.DriverMetrics().executions_completed, kChurnFleet);

  // Deschedule the whole fleet mid-run. Each live wheel entry goes stale and
  // must be dropped by its generation check when it pops.
  for (const std::string& name : names) {
    ASSERT_TRUE(driver.TrySetCheckerEnabled(name, false).ok());
  }
  clock.SleepFor(Ms(400));  // > interval + max stagger: every entry has popped
  const int64_t frozen = total_runs.load();
  const DriverMetricsSnapshot descheduled = driver.DriverMetrics();
  clock.SleepFor(Ms(300));
  // No stale generation fired: the descheduled fleet is completely silent...
  EXPECT_EQ(total_runs.load(), frozen);
  // ...and the wheel reclaimed all 10k entries instead of leaking them.
  EXPECT_EQ(descheduled.wheel_entries, 0u);

  // Re-add everyone; the fleet must come back at full strength.
  for (const std::string& name : names) {
    ASSERT_TRUE(driver.TrySetCheckerEnabled(name, true).ok());
  }
  const int64_t completed_before = driver.DriverMetrics().executions_completed;
  const TimeNs resumed_deadline = clock.NowNs() + Sec(60);
  while (driver.DriverMetrics().executions_completed < completed_before + kChurnFleet &&
         clock.NowNs() < resumed_deadline) {
    clock.SleepFor(Ms(20));
  }
  const DriverMetricsSnapshot resumed = driver.DriverMetrics();
  EXPECT_GE(resumed.executions_completed, completed_before + kChurnFleet);
  // At most one live entry per checker: re-adding did not duplicate schedules.
  EXPECT_LE(resumed.wheel_entries, static_cast<size_t>(kChurnFleet));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_TRUE(driver.Failures().empty());
}

TEST(DriverShardingTest, SubscriptionEpochsSkipDormantCheckers) {
  RealClock& clock = RealClock::Instance();
  static const auto kProgress = ContextKey<int64_t>::Of("scale.sub.progress");
  CheckContext ctx("scale_sub_ctx");
  ctx.Set(kProgress, 0);
  ctx.MarkReady(1);

  WatchdogDriver::Options options;
  options.executor.workers = 2;
  WatchdogDriver driver(clock, options);

  std::atomic<int64_t> body_runs{0};
  ASSERT_TRUE(CheckerBuilder("dormant")
                  .Component("scale.sub")
                  .Interval(Ms(20))
                  .Deadline(Ms(400))
                  .WithContext(&ctx)
                  .SubscribeKey(kProgress)
                  .Mimic([&body_runs](const CheckContext&, MimicChecker&) {
                    body_runs.fetch_add(1, std::memory_order_relaxed);
                    return CheckResult::Pass();
                  })
                  .RegisterWith(driver)
                  .ok());
  ASSERT_TRUE(driver.Start().ok());

  // Dormant component: the subscribed key never advances, so after the
  // baseline run every scheduled interval is skipped before dispatch.
  clock.SleepFor(Ms(300));
  const int64_t dormant_runs = body_runs.load();
  EXPECT_LE(dormant_runs, 2);
  const DriverMetricsSnapshot dormant = driver.DriverMetrics();
  EXPECT_GE(dormant.skipped_unchanged, 5);
  EXPECT_GE(driver.StatsFor("dormant").skipped_unchanged, 5);

  // The component publishes progress: the next due tick runs the body again.
  ctx.Set(kProgress, 1);
  ctx.MarkReady(2);  // Set only stages; the publish is what bumps the epoch
  const TimeNs resume_deadline = clock.NowNs() + Sec(5);
  while (body_runs.load() <= dormant_runs && clock.NowNs() < resume_deadline) {
    clock.SleepFor(Ms(5));
  }
  EXPECT_GT(body_runs.load(), dormant_runs);
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_TRUE(driver.Failures().empty());
}

TEST(DriverShardingTest, BatchHangAbandonsOnceAndRedispatchesSiblings) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec hang;
  hang.id = "stuck";
  hang.site_pattern = "batch.op";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);

  WatchdogDriver::Options options;
  options.shards = 2;
  options.dispatch_batch = 8;
  options.executor.workers = 2;
  options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);

  CheckerOptions hung_options;
  hung_options.interval = Ms(20);
  hung_options.timeout = Ms(80);
  hung_options.shard_affinity = 0;
  driver.AddChecker(std::make_unique<MimicChecker>(
      "hung", "batch", nullptr,
      [&injector](const CheckContext&, MimicChecker&) {
        (void)injector.Act("batch.op");
        return CheckResult::Pass();
      },
      hung_options));
  constexpr int kSiblings = 7;
  std::atomic<int64_t> sibling_runs{0};
  for (int i = 0; i < kSiblings; ++i) {
    CheckerOptions copts;
    copts.interval = Ms(20);
    copts.timeout = Ms(400);
    copts.shard_affinity = 0;  // co-located so they share the hung batch
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("sib%d", i), "batch",
        [&sibling_runs] {
          sibling_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  // Healthy checkers on the other shard: the hang on shard 0 must not touch
  // their pool.
  constexpr int kNeighbours = 3;
  std::atomic<int64_t> neighbour_runs{0};
  for (int i = 0; i < kNeighbours; ++i) {
    CheckerOptions copts;
    copts.interval = Ms(20);
    copts.timeout = Ms(400);
    copts.shard_affinity = 1;
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("neighbour%d", i), "batch",
        [&neighbour_runs] {
          neighbour_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  ASSERT_TRUE(driver.Start().ok());

  ASSERT_TRUE(driver.WaitForFailure(Sec(5), [](const FailureSignature& sig) {
    return sig.type == FailureType::kLivenessTimeout && sig.checker_name == "hung";
  }));
  // Siblings cancelled out of the abandoned batch re-dispatch on the
  // replacement worker, and shard 1's checkers never stop: both keep
  // accruing runs while the hang drains.
  const int64_t runs_at_detect = sibling_runs.load();
  const int64_t neighbour_runs_at_detect = neighbour_runs.load();
  clock.SleepFor(Ms(200));
  EXPECT_GT(sibling_runs.load(), runs_at_detect);
  EXPECT_GT(neighbour_runs.load(), neighbour_runs_at_detect);
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_EQ(metrics.workers_abandoned, 1);
  ASSERT_EQ(metrics.shard_views.size(), 2u);
  EXPECT_EQ(metrics.shard_views[0].workers_abandoned, 1);
  EXPECT_EQ(metrics.shard_views[1].workers_abandoned, 0);
  // Exactly one replacement thread, on the hung shard's pool.
  EXPECT_EQ(metrics.threads_spawned,
            options.shards * options.executor.workers + 1);
  EXPECT_EQ(metrics.timeouts, 1);
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_EQ(injector.parked_thread_count(), 0);
  // Exactly-once accounting survives batching: every counted run resolved to
  // exactly one outcome; cancelled siblings were un-counted, never dropped.
  for (const std::string& name : driver.CheckerNames()) {
    const CheckerStats stats = driver.StatsFor(name);
    EXPECT_EQ(stats.runs, stats.passes + stats.fails + stats.context_not_ready +
                              stats.timeouts + stats.crashes)
        << name;
  }
}

// Start and end times of every run of one checker, stamped by its body.
class RunLog {
 public:
  void Record(TimeNs start, TimeNs end) {
    std::lock_guard<std::mutex> lock(mu_);
    runs_.emplace_back(start, end);
  }
  std::vector<std::pair<TimeNs, TimeNs>> Runs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return runs_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<TimeNs, TimeNs>> runs_;
};

// A probe that sleeps `body` and logs each run's start and end.
std::unique_ptr<ProbeChecker> LoggedProbe(const std::string& name, DurationNs interval,
                                          DurationNs body, RunLog& log) {
  CheckerOptions copts;
  copts.interval = interval;
  RealClock& clock = RealClock::Instance();
  return std::make_unique<ProbeChecker>(
      name, "cadence",
      [&clock, &log, body] {
        const TimeNs start = clock.NowNs();
        if (body > 0) {
          clock.SleepFor(body);
        }
        log.Record(start, clock.NowNs());
        return Status::Ok();
      },
      copts);
}

// The kvs driver shape: 11 checkers launched on one tick at one interval, on
// default options. They must stay one batch period after period (one pool
// task, one worker wake-up), and the scheduler must not wake more than a
// couple of times per interval. With one task per check this read 1 check
// per batch.
TEST(DriverShardingTest, CoPeriodicCheckersRideOneBatch) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.executor.workers = 2;
  WatchdogDriver driver(clock, options);
  constexpr int kCheckers = 11;
  constexpr DurationNs kInterval = Ms(25);
  for (int i = 0; i < kCheckers; ++i) {
    CheckerOptions copts;
    copts.interval = kInterval;
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("copt%02d", i), "scale", [] { return Status::Ok(); }, copts));
  }
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(150));  // warm-up
  const DriverMetricsSnapshot before = driver.DriverMetrics();
  const TimeNs t0 = clock.NowNs();
  clock.SleepFor(Ms(500));
  const DriverMetricsSnapshot after = driver.DriverMetrics();
  const TimeNs t1 = clock.NowNs();
  EXPECT_TRUE(driver.Stop().ok());

  const int64_t checks = after.executions_dispatched - before.executions_dispatched;
  const int64_t batches = after.batches_dispatched - before.batches_dispatched;
  ASSERT_GT(batches, 0);
  EXPECT_GE(checks, 8 * batches) << checks << " checks in " << batches << " batches";
  const double intervals = static_cast<double>(t1 - t0) / static_cast<double>(kInterval);
  const double passes = static_cast<double>(after.scheduler_passes - before.scheduler_passes);
  EXPECT_LE(passes / intervals, 2.5) << passes << " scheduler passes in " << intervals
                                     << " intervals";
  EXPECT_EQ(after.ToMap().at("wdg.driver.scheduler_passes"),
            static_cast<double>(after.scheduler_passes));
  EXPECT_TRUE(driver.Failures().empty());
}

// Fixed delay holds for every member of a batch: no run starts earlier than
// its interval after its own previous run ended, whatever its siblings
// cost. Rescheduling from the batch's dispatch would start the 2 ms body's
// next run about 2 ms early.
TEST(DriverShardingTest, BatchSiblingsNeverStartEarly) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.executor.workers = 2;
  WatchdogDriver driver(clock, options);
  constexpr DurationNs kInterval = Ms(10);
  const std::vector<DurationNs> bodies = {0, Us(200), Ms(2)};
  std::vector<RunLog> logs(bodies.size());
  for (size_t i = 0; i < bodies.size(); ++i) {
    driver.AddChecker(LoggedProbe(StrFormat("sib%zu", i), kInterval, bodies[i], logs[i]));
  }
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(400));
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_TRUE(driver.Stop().ok());

  // They shared batches rather than one task per check.
  EXPECT_GE(metrics.executions_dispatched, 2 * metrics.batches_dispatched);
  for (size_t i = 0; i < logs.size(); ++i) {
    const auto runs = logs[i].Runs();
    EXPECT_GE(runs.size(), 5u) << "body " << bodies[i];
    for (size_t r = 1; r < runs.size(); ++r) {
      EXPECT_GE(runs[r].first - runs[r - 1].second, kInterval)
          << "body " << bodies[i] << " ns, run " << r << " started "
          << (kInterval - (runs[r].first - runs[r - 1].second)) << " ns early";
    }
  }
}

// A hang in the middle of a batch: the siblings that ran before it keep
// their cadence (their runs are reaped without waiting for the batch), and
// the siblings queued behind it wait for its deadline, then are cancelled
// and rerun on the replacement worker within the deadline plus a tick.
TEST(DriverShardingTest, HangKeepsEarlierSiblingsOnCadence) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec hang;
  hang.id = "stuck";
  hang.site_pattern = "cadence.op";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);

  WatchdogDriver::Options options;
  options.executor.workers = 2;
  options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);

  constexpr DurationNs kInterval = Ms(20);
  constexpr DurationNs kDeadline = Ms(200);
  // Scheduling slack on a loaded (or sanitized) box; far below kDeadline,
  // which is what the earlier siblings would wait if only the batch's finish
  // or the hang's deadline reaped them.
  constexpr DurationNs kSlack = Ms(30);
  RunLog early0;
  RunLog early1;
  RunLog late0;
  RunLog late1;
  // Registration order is batch order: early0, early1, hung, late0, late1.
  driver.AddChecker(LoggedProbe("early0", kInterval, 0, early0));
  driver.AddChecker(LoggedProbe("early1", kInterval, 0, early1));
  std::atomic<TimeNs> hang_start{0};
  std::atomic<size_t> late_runs_before_hang{1};
  CheckerOptions hung_options;
  hung_options.interval = kInterval;
  hung_options.timeout = kDeadline;
  driver.AddChecker(std::make_unique<MimicChecker>(
      "hung", "cadence", nullptr,
      [&](const CheckContext&, MimicChecker&) {
        late_runs_before_hang.store(late0.Runs().size() + late1.Runs().size());
        hang_start.store(clock.NowNs());
        (void)injector.Act("cadence.op");
        return CheckResult::Pass();
      },
      hung_options));
  driver.AddChecker(LoggedProbe("late0", kInterval, 0, late0));
  driver.AddChecker(LoggedProbe("late1", kInterval, 0, late1));
  ASSERT_TRUE(driver.Start().ok());

  ASSERT_TRUE(driver.WaitForFailure(Sec(5), [](const FailureSignature& sig) {
    return sig.type == FailureType::kLivenessTimeout && sig.checker_name == "hung";
  }));
  clock.SleepFor(Ms(100));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_EQ(injector.parked_thread_count(), 0);

  const TimeNs hung_at = hang_start.load();
  ASSERT_NE(hung_at, 0);
  EXPECT_EQ(late_runs_before_hang.load(), 0u);  // the late siblings were queued behind it
  for (const RunLog* log : {&early0, &early1}) {
    const auto runs = log->Runs();
    ASSERT_FALSE(runs.empty());
    EXPECT_LT(runs.front().first, hung_at);  // ran in the hung batch, before the hang
    int runs_during_hang = 0;
    for (size_t r = 1; r < runs.size(); ++r) {
      if (runs[r].first > hung_at + kDeadline) {
        break;
      }
      ++runs_during_hang;
      EXPECT_LE(runs[r].first - runs[r - 1].second, kInterval + kSlack) << "run " << r;
    }
    EXPECT_GE(runs_during_hang, 3);
  }
  for (const RunLog* log : {&late0, &late1}) {
    const auto runs = log->Runs();
    ASSERT_FALSE(runs.empty());
    EXPECT_LE(runs.front().first, hung_at + kDeadline + options.wheel_tick + kSlack);
  }
}

TEST(DriverShardingTest, HangMidBatchIsAbandonedWithinItsDeadline) {
  // Dispatches do not wake the scheduler: it must still arm the deadline of
  // an execution that starts late in its batch, long after the scheduler
  // last looked. Long intervals keep the wheel from waking it instead.
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec hang;
  hang.id = "stuck";
  hang.site_pattern = "midbatch.op";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);

  WatchdogDriver::Options options;
  options.dispatch_batch = 4;
  options.executor.workers = 1;
  options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);

  constexpr DurationNs kDeadline = Ms(100);
  std::atomic<int64_t> sibling_runs{0};
  for (int i = 0; i < 3; ++i) {
    CheckerOptions copts;
    copts.interval = Sec(5);
    copts.timeout = Ms(400);
    copts.initial_delay = Ms(10);
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("slow%d", i), "midbatch",
        [&clock, &sibling_runs] {
          clock.SleepFor(Ms(10));
          sibling_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  std::atomic<TimeNs> hang_start{0};
  std::atomic<int64_t> siblings_before_hang{-1};
  CheckerOptions hung_options;
  hung_options.interval = Sec(5);
  hung_options.timeout = kDeadline;
  hung_options.initial_delay = Ms(10);
  driver.AddChecker(std::make_unique<MimicChecker>(
      "hung", "midbatch", nullptr,
      [&](const CheckContext&, MimicChecker&) {
        siblings_before_hang.store(sibling_runs.load());
        hang_start.store(clock.NowNs());
        (void)injector.Act("midbatch.op");
        return CheckResult::Pass();
      },
      hung_options));
  ASSERT_TRUE(driver.Start().ok());

  ASSERT_TRUE(driver.WaitForFailure(Sec(5), [](const FailureSignature& sig) {
    return sig.type == FailureType::kLivenessTimeout && sig.checker_name == "hung";
  }));
  const TimeNs detected = clock.NowNs();
  EXPECT_EQ(siblings_before_hang.load(), 3);  // the hang began last in its batch
  EXPECT_GE(detected - hang_start.load(), kDeadline);
  EXPECT_LE(detected - hang_start.load(), kDeadline + Ms(50));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_EQ(injector.parked_thread_count(), 0);
}

// A probe/signal body can subscribe to context keys too (the context is
// subscription-only there): a dormant signal checker is skipped before
// dispatch exactly like a dormant mimic.
TEST(DriverShardingTest, SubscriptionEpochsSkipDormantSignalCheckers) {
  RealClock& clock = RealClock::Instance();
  static const auto kDepth = ContextKey<int64_t>::Of("scale.sub.sig_depth");
  CheckContext ctx("scale_sub_sig_ctx");
  ctx.Set(kDepth, 0);
  ctx.MarkReady(1);

  WatchdogDriver::Options options;
  options.executor.workers = 2;
  WatchdogDriver driver(clock, options);

  std::atomic<int64_t> samples{0};
  ASSERT_TRUE(CheckerBuilder("dormant-signal")
                  .Component("scale.sub")
                  .Interval(Ms(20))
                  .Deadline(Ms(400))
                  .WithContext(&ctx)
                  .SubscribeKey(kDepth)
                  .Signal(
                      "queue_depth",
                      [&samples] {
                        samples.fetch_add(1, std::memory_order_relaxed);
                        return 0.0;
                      },
                      [](double value) { return value < 100.0; })
                  .RegisterWith(driver)
                  .ok());
  ASSERT_TRUE(driver.Start().ok());

  // Dormant component: the subscribed key never advances, so after the
  // baseline sample every scheduled interval is skipped before dispatch.
  clock.SleepFor(Ms(300));
  const int64_t dormant_samples = samples.load();
  EXPECT_LE(dormant_samples, 2);
  EXPECT_GE(driver.DriverMetrics().skipped_unchanged, 5);
  EXPECT_GE(driver.StatsFor("dormant-signal").skipped_unchanged, 5);

  // The component publishes progress: the signal samples again.
  ctx.Set(kDepth, 1);
  ctx.MarkReady(2);
  const TimeNs resume_deadline = clock.NowNs() + Sec(5);
  while (samples.load() <= dormant_samples && clock.NowNs() < resume_deadline) {
    clock.SleepFor(Ms(5));
  }
  EXPECT_GT(samples.load(), dormant_samples);
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_TRUE(driver.Failures().empty());
}

// The tentpole invariant, enforced: once the slab freelist, worker-pool ring
// and claim table, wheel buckets, and scheduler scratch are warm, a dispatch
// round performs ZERO heap allocations — executions are recycled slab slots,
// batch tickets are pre-encoded, and the sampled queue-delay reservoir was
// reserved up front.
TEST(DriverScaleTest, SteadyStateDispatchIsAllocationFree) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.executor.workers = 2;
  options.executor.queue_capacity = 1024;
  options.dispatch_batch = 8;
  options.per_checker_metrics = false;
  WatchdogDriver driver(clock, options);

  constexpr int kCheckers = 16;
  std::atomic<int64_t> total_runs{0};
  for (int i = 0; i < kCheckers; ++i) {
    CheckerOptions copts;
    copts.interval = Ms(5);
    copts.timeout = Sec(5);
    // Deliberately phase-aligned (no stagger): every tick dispatches the
    // whole fleet at once, so warmup's high-water marks (due scratch, slabs
    // in flight) already ARE the worst case. A one-core scheduler stall can
    // then never produce a catch-up burst bigger than a normal round — each
    // checker holds at most one wheel entry — which is what makes the
    // zero-allocation window deterministic instead of stall-flaky.
    copts.initial_delay = 0;
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("alloc%02d", i), "scale",
        [&total_runs] {
          total_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  ASSERT_TRUE(driver.Start().ok());
  // Warmup: fills the slab freelist, ring, claim table, wheel buckets, and
  // scratch vectors to their steady capacities.
  clock.SleepFor(Ms(500));
  const int64_t runs_before = total_runs.load();
  g_alloc_trace_budget.store(6, std::memory_order_relaxed);
  const int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  clock.SleepFor(Ms(400));  // steady state; no driver accessors touched
  const int64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  g_alloc_trace_budget.store(0, std::memory_order_relaxed);
  const int64_t runs_after = total_runs.load();
  EXPECT_EQ(allocs_after - allocs_before, 0)
      << (allocs_after - allocs_before) << " heap allocations across "
      << (runs_after - runs_before) << " checks";
  EXPECT_GT(runs_after, runs_before + 100);  // the window really dispatched
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_TRUE(driver.Failures().empty());
}

// A passing probe run costs only its probe: it publishes no op pinpoint and
// builds no signature, so even a checker's first run allocates nothing that
// a 10^5-checker fleet would pay once per checker.
TEST(DriverScaleTest, FirstProbeRunsAllocateTheSameAtAnyFleetSize) {
  const auto first_run_allocs = [](int checkers) {
    std::vector<std::unique_ptr<ProbeChecker>> fleet;
    for (int i = 0; i < checkers; ++i) {
      fleet.push_back(std::make_unique<ProbeChecker>(
          StrFormat("first%04d", i), "scale.first.run.component",
          [] { return Status::Ok(); }));
    }
    g_alloc_trace_budget.store(6, std::memory_order_relaxed);
    const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (auto& checker : fleet) {
      EXPECT_EQ(checker->Check().outcome, CheckOutcome::kPass);
    }
    const int64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
    g_alloc_trace_budget.store(0, std::memory_order_relaxed);
    return allocs;
  };
  const int64_t at_10 = first_run_allocs(10);
  const int64_t at_1000 = first_run_allocs(1000);
  EXPECT_EQ(at_1000, at_10) << at_10 << " allocations over 10 first runs, " << at_1000
                            << " over 1000";
}

// The hook plane allocates nothing in steady state either: an armed Fire
// that stages values and MarkReady()s them reuses the thread-local batch,
// the context's chunk and each cell's spill block. Covers batches of 1, 2 and
// 20 values (the 20 staged out of slot order, so the flush sorts them) and a
// 200-byte string built before the window and moved in. Snapshot stays out:
// it returns an owning copy.
TEST(DriverScaleTest, SteadyStateHookPlaneIsAllocationFree) {
  static const auto kOne = ContextKey<int64_t>::Of("hookalloc.one");
  static const auto kTwo = ContextKey<double>::Of("hookalloc.two");
  static const auto kLong = ContextKey<std::string>::Of("hookalloc.long");
  std::vector<ContextKey<int64_t>> wide;
  for (int i = 0; i < 20; ++i) {
    wide.push_back(ContextKey<int64_t>::Of(StrFormat("hookalloc.wide%02d", i)));
  }
  CheckContext ctx("hookalloc");
  HookSite site("hookalloc.site");
  site.Arm(&ctx);
  const auto fire_all = [&](int64_t round, std::string long_value) {
    site.Fire([&](CheckContext& c) {
      c.Set(kOne, round);
      c.MarkReady(round);
    });
    site.Fire([&](CheckContext& c) {
      c.Set(kOne, round);
      c.Set(kTwo, 0.5 * static_cast<double>(round));
      c.MarkReady(round);
    });
    site.Fire([&](CheckContext& c) {
      for (auto key = wide.rbegin(); key != wide.rend(); ++key) {
        c.Set(*key, round);
      }
      c.MarkReady(round);
    });
    site.Fire([&](CheckContext& c) {
      c.Set(kLong, std::move(long_value));
      c.Set(kOne, round);
      c.MarkReady(round);
    });
  };
  constexpr int kRounds = 64;
  std::vector<std::string> long_values;
  for (int i = 0; i < 2 * kRounds; ++i) {
    long_values.emplace_back(200, static_cast<char>('a' + i % 26));
  }
  for (int i = 0; i < kRounds; ++i) {  // warmup: batch, chunk, spill block
    fire_all(i, std::move(long_values[i]));
  }
  g_alloc_trace_budget.store(6, std::memory_order_relaxed);
  const int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = kRounds; i < 2 * kRounds; ++i) {
    fire_all(i, std::move(long_values[i]));
  }
  const int64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  g_alloc_trace_budget.store(0, std::memory_order_relaxed);
  EXPECT_EQ(allocs_after - allocs_before, 0)
      << (allocs_after - allocs_before) << " heap allocations across "
      << 4 * kRounds << " armed fires";
  EXPECT_EQ(ctx.epoch(), static_cast<uint64_t>(8 * kRounds));
  EXPECT_EQ(*ctx.Get(kOne), 2 * kRounds - 1);
  EXPECT_EQ(*ctx.Get(wide[0]), 2 * kRounds - 1);
  EXPECT_EQ(*ctx.Get(kLong),
            std::string(200, static_cast<char>('a' + (2 * kRounds - 1) % 26)));
  EXPECT_EQ(site.fired_count(), 8 * kRounds);
}

// --- registration: the flat name index --------------------------------

// Registering a checker allocates nothing per checker in the driver: the
// slot is built in place in one vector and the name index is one flat
// vector, so allocations grow with the number of doublings, not the fleet.
TEST(DriverScaleTest, RegistrationAllocatesNothingPerChecker) {
  constexpr int kCheckers = 50000;
  std::vector<std::unique_ptr<Checker>> fleet;
  fleet.reserve(kCheckers);
  for (int i = 0; i < kCheckers; ++i) {
    fleet.push_back(std::make_unique<ProbeChecker>(StrFormat("reg%05d", i), "scale",
                                                   [] { return Status::Ok(); }));
  }
  WatchdogDriver::Options options;
  options.shards = 4;
  options.per_checker_metrics = false;
  WatchdogDriver driver(RealClock::Instance(), options);
  int refused = 0;
  const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (std::unique_ptr<Checker>& checker : fleet) {
    refused += driver.TryAddChecker(std::move(checker)).ok() ? 0 : 1;
  }
  const int64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(refused, 0);
  EXPECT_EQ(driver.checker_count(), kCheckers);
  EXPECT_LT(allocs, kCheckers / 100) << allocs << " heap allocations for " << kCheckers
                                     << " registrations";
}

// Sanitized builds register a smaller fleet: the index's behaviour does not
// depend on its size past a few doublings.
constexpr int kRegistrationFleet = kSanitized ? 20000 : 100000;

// After a 10^5 fleet, every name is still found by every accessor, a
// duplicate is still refused with its code and message, and CheckerNames()
// lists the fleet in registration order (here not sorted order).
TEST(DriverScaleTest, FleetRegistrationFindsEveryNameAndRefusesDuplicates) {
  WatchdogDriver::Options options;
  options.shards = 4;
  options.executor.workers = 2;
  options.executor.queue_capacity = 4096;
  options.per_checker_metrics = false;
  WatchdogDriver driver(RealClock::Instance(), options);
  std::atomic<int64_t> runs{0};
  CheckerOptions copts;
  copts.interval = Sec(3600);  // each checker runs once, at Start()
  copts.timeout = Sec(30);
  std::vector<std::string> names;
  names.reserve(kRegistrationFleet);
  int refused = 0;
  for (int i = 0; i < kRegistrationFleet; ++i) {
    // 7919 is prime to the fleet size, so this visits every number once.
    names.push_back(StrFormat("r%06d", static_cast<int>(int64_t{i} * 7919 % kRegistrationFleet)));
    refused += driver
                   .TryAddChecker(std::make_unique<ProbeChecker>(
                       names.back(), "scale",
                       [&runs] {
                         runs.fetch_add(1, std::memory_order_relaxed);
                         return Status::Ok();
                       },
                       copts))
                   .ok()
                   ? 0
                   : 1;
  }
  ASSERT_EQ(refused, 0);

  const Status duplicate = driver.TryAddChecker(std::make_unique<ProbeChecker>(
      names[kRegistrationFleet / 2], "scale", [] { return Status::Ok(); }, copts));
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(duplicate.message(),
            "checker '" + names[kRegistrationFleet / 2] + "' is already registered");
  EXPECT_EQ(driver.TryAddChecker(nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(driver.checker_count(), kRegistrationFleet);
  EXPECT_EQ(driver.CheckerNames(), names);

  int misplaced = 0;
  for (const std::string& name : names) {
    const int shard = driver.ShardOf(name);
    misplaced += shard >= 0 && shard < 4 && driver.IsCheckerEnabled(name) ? 0 : 1;
  }
  EXPECT_EQ(misplaced, 0);
  EXPECT_EQ(driver.ShardOf("r-missing"), -1);
  EXPECT_FALSE(driver.IsCheckerEnabled("r-missing"));
  EXPECT_EQ(driver.TrySetCheckerEnabled("r-missing", false).code(), StatusCode::kNotFound);

  ASSERT_TRUE(driver.Start().ok());
  const Status late = driver.TryAddChecker(
      std::make_unique<ProbeChecker>("r-late", "scale", [] { return Status::Ok(); }, copts));
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(late.message(), "cannot register checker 'r-late': driver already running");
  const TimeNs deadline = RealClock::Instance().NowNs() + Sec(60);
  while (runs.load() < kRegistrationFleet && RealClock::Instance().NowNs() < deadline) {
    RealClock::Instance().SleepFor(Ms(10));
  }
  EXPECT_TRUE(driver.Stop().ok());
  ASSERT_EQ(runs.load(), kRegistrationFleet);
  // Every name reaches its own slot's stats: each ran exactly once.
  int not_found = 0;
  for (const std::string& name : names) {
    not_found += driver.StatsFor(name).runs == 1 ? 0 : 1;
  }
  EXPECT_EQ(not_found, 0);
  EXPECT_EQ(driver.StatsFor("r-missing").runs, 0);
}

// Without affinity a checker's shard is std::hash of its name modulo the
// shard count, as it was before the name index reused the hash.
TEST(DriverShardingTest, UnpinnedShardIsTheNameHashModuloShards) {
  WatchdogDriver::Options options;
  options.shards = 4;
  WatchdogDriver driver(RealClock::Instance(), options);
  for (int i = 0; i < 1000; ++i) {
    driver.AddChecker(std::make_unique<ProbeChecker>(StrFormat("shard-rule-%04d", i), "scale",
                                                     [] { return Status::Ok(); }));
  }
  for (int i = 0; i < 1000; ++i) {
    const std::string name = StrFormat("shard-rule-%04d", i);
    EXPECT_EQ(driver.ShardOf(name), static_cast<int>(std::hash<std::string>{}(name) % 4))
        << name;
  }
}

}  // namespace
}  // namespace wdg
