// Driver scaling: the pooled scheduler/executor at {1, 8, 64, 256} checkers,
// reporting checks/sec, p99 queue delay (due -> body running), and threads
// created — thread creation stays flat at the fixed pool size. At 64 and 256
// checkers a storm row also wedges 8 checkers at once to show the fixed pool
// absorbing the hangs through abandon-and-respawn.
// Emits BENCH_driver_scale.json to seed the perf trajectory.
//
// The sharded rows run the fleet-scale configuration (8 scheduler shards,
// per-shard timer wheels, batched dispatch) at {1k, 10k, 100k, 1M} checkers,
// plus a mostly-dormant subscription fleet where checks are skipped because no
// subscribed context key advanced. The 1M row uses the wide-batch shape
// (dispatch_batch 64, ring 8192) and offers ~555k checks/sec through the
// recycled-slab dispatch path. --smoke-10k runs only the 10k sharded config
// and exits nonzero unless p99 queue delay and worker count stay in budget —
// CI's fast fleet-scale gate; --smoke-1m is the downscaled 1M-shape gate
// (200k checkers at the same offered rate); it also prints the fleet's
// registration-plus-Start() wall time (ungated) and its heap allocations per
// registered checker, and exits nonzero when those exceed
// kSetupAllocsPerCheckerLimit. --smoke-kvs runs the kvs driver
// shape (11 checkers at 25 ms on 1 shard x 2 workers, default batching) and
// exits nonzero unless the co-due checkers ride one batch and the scheduler
// wakes at most 2.5 times per interval.
//
//   ./bench_driver_scale [--quick] [--smoke-10k] [--smoke-1m] [--smoke-kvs]
//                        [--only-1m]
//
// --only-1m runs just the full 1M sharded row (no JSON) — the iteration loop
// for tuning the million-checker shape without paying for the other configs.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/strings.h"
#include "src/eval/table.h"
#include "src/fault/fault_injector.h"
#include "src/watchdog/builder.h"
#include "src/watchdog/builtin_checkers.h"
#include "src/watchdog/context.h"
#include "src/watchdog/driver.h"

// Heap allocations of the whole process, counted by a relaxed counter in the
// replaced global operator new: the sharded rows read it around registration
// and Start(). The operators are out of line on purpose: inlined into a
// caller, `malloc` and `free` would meet pointers GCC tracks as
// `new`-allocated and trip -Wmismatched-new-delete.
static std::atomic<int64_t> g_heap_allocs{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) {
    return ptr;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete[](void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}

namespace {

constexpr wdg::DurationNs kInterval = wdg::Ms(50);
constexpr int kStormHangs = 8;  // hang-storm width of the pooled-storm rows

struct ModeResult {
  std::string mode;
  int checkers = 0;
  double checks_per_sec = 0;
  double p99_queue_delay_us = 0;
  int64_t threads_spawned = 0;
  int64_t workers_abandoned = 0;

  // Sharded-mode extras (meaningful only for mode "sharded"/"sharded-idle").
  int shards = 0;
  int workers_per_shard = 0;
  int pool_workers = 0;
  int64_t batches_dispatched = 0;
  int64_t skipped_unchanged = 0;
  int64_t interval_ms = 0;
  // Registration of the whole fleet plus Start() (sharded rows).
  double setup_ms = 0;
  int64_t setup_allocs = 0;
};

// The fleet-scale driver shape: 8 scheduler shards x 2 fixed workers, 16
// executions per pool task. per_checker_metrics off, as a 100k fleet must run.
wdg::WatchdogDriver::Options ShardedOptions() {
  wdg::WatchdogDriver::Options options;
  options.shards = 8;
  options.executor.workers = 2;
  options.executor.queue_capacity = 4096;
  options.dispatch_batch = 16;
  options.per_checker_metrics = false;
  return options;
}

// The million-checker shape: same shard/worker count (the box has one core to
// give), but wide dispatch batches and a deep ring so a 500k+/sec offered rate
// moves through the pools in large allocation-free strides.
wdg::WatchdogDriver::Options ShardedMillionOptions() {
  wdg::WatchdogDriver::Options options = ShardedOptions();
  options.executor.queue_capacity = 8192;
  options.dispatch_batch = 64;
  return options;
}

// Check interval for a sharded fleet: scaled with size so the aggregate rate
// (checkers / interval) stays in a band the pools can absorb without the
// bench measuring pure saturation. The 1M row deliberately offers ~555k/sec
// (1M / 1.8s) so a sustained >=500k checks/sec is a capacity statement, not
// an offered-rate echo.
wdg::DurationNs ShardedInterval(int checkers) {
  if (checkers <= 1000) {
    return wdg::Ms(50);
  }
  if (checkers <= 10000) {
    return wdg::Ms(200);
  }
  return checkers <= 100000 ? wdg::Sec(1) : wdg::Ms(1800);
}

ModeResult RunShardedWith(const wdg::WatchdogDriver::Options& options,
                          int checkers, wdg::DurationNs interval,
                          wdg::DurationNs duration) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::WatchdogDriver driver(clock, options);
  const int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  const wdg::TimeNs setup_start = clock.NowNs();
  for (int i = 0; i < checkers; ++i) {
    wdg::CheckerOptions checker;
    checker.interval = interval;
    checker.timeout = wdg::Ms(400);
    // Uniform stagger across one full interval: the wheel sees a steady
    // trickle instead of 100k simultaneous deadlines at Start()+interval.
    checker.initial_delay = (interval / checkers) * i;
    driver.AddChecker(std::make_unique<wdg::ProbeChecker>(
        wdg::StrFormat("s%06d", i), "bench", [] { return wdg::Status::Ok(); },
        checker));
  }
  // The clock starts after Start() returns: thread spawn plus the initial
  // wheel schedule for a 1M fleet is setup, not serving, and its cost varies
  // with heap state (hundreds of ms when a prior config fragmented the
  // arenas) — folding it into the window understates steady-state capacity.
  (void)driver.Start();
  const wdg::TimeNs start = clock.NowNs();
  const int64_t setup_allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  // duration + one interval: even a quick run lets every checker complete at
  // least one full scheduling cycle.
  clock.SleepFor(duration + interval);
  const wdg::DriverMetricsSnapshot metrics = driver.DriverMetrics();
  const double elapsed_s = static_cast<double>(clock.NowNs() - start) /
                           static_cast<double>(wdg::kNsPerSec);
  (void)driver.Stop();
  ModeResult result;
  result.mode = "sharded";
  result.checkers = checkers;
  result.checks_per_sec =
      static_cast<double>(metrics.executions_completed) / elapsed_s;
  result.p99_queue_delay_us = metrics.queue_delay_p99_ns / 1000.0;
  result.threads_spawned = metrics.threads_spawned;
  result.shards = metrics.shards;
  result.workers_per_shard = options.executor.workers;
  result.pool_workers = metrics.pool_workers;
  result.batches_dispatched = metrics.batches_dispatched;
  result.skipped_unchanged = metrics.skipped_unchanged;
  result.interval_ms = interval / wdg::kNsPerMs;
  result.setup_ms = static_cast<double>(start - setup_start) / wdg::kNsPerMs;
  result.setup_allocs = setup_allocs;
  return result;
}

ModeResult RunSharded(int checkers, wdg::DurationNs duration) {
  return RunShardedWith(
      checkers > 100000 ? ShardedMillionOptions() : ShardedOptions(), checkers,
      ShardedInterval(checkers), duration);
}

// A mostly-dormant fleet: every checker subscribes to one context key that
// never advances after the initial publish, so each runs its body once (the
// subscription baseline) and is thereafter skipped at dispatch time. The
// interesting number is skipped_unchanged >> checks completed.
ModeResult RunShardedIdle(int checkers, wdg::DurationNs duration) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::WatchdogDriver driver(clock, ShardedOptions());
  const wdg::DurationNs interval = wdg::Ms(20);
  wdg::CheckContext context("bench.idle");
  const auto progress = wdg::ContextKey<int64_t>::Of("bench.idle.progress");
  context.Set(progress, 0);
  context.MarkReady(1);  // publish: epochs only advance on MarkReady
  for (int i = 0; i < checkers; ++i) {
    wdg::Status status =
        wdg::CheckerBuilder(wdg::StrFormat("i%06d", i))
            .Component("bench")
            .Interval(interval)
            .Deadline(wdg::Ms(400))
            .InitialDelay((interval / checkers) * i)
            .WithContext(&context)
            .SubscribeKey(progress)
            .Mimic([](const wdg::CheckContext&, wdg::MimicChecker&) {
              return wdg::CheckResult::Pass();
            })
            .RegisterWith(driver);
    if (!status.ok()) {
      std::fprintf(stderr, "sharded-idle registration failed: %s\n",
                   status.ToString().c_str());
      break;
    }
  }
  (void)driver.Start();
  const wdg::TimeNs start = clock.NowNs();  // serving window only, as above
  clock.SleepFor(duration + interval);
  const wdg::DriverMetricsSnapshot metrics = driver.DriverMetrics();
  const double elapsed_s = static_cast<double>(clock.NowNs() - start) /
                           static_cast<double>(wdg::kNsPerSec);
  (void)driver.Stop();
  ModeResult result;
  result.mode = "sharded-idle";
  result.checkers = checkers;
  result.checks_per_sec =
      static_cast<double>(metrics.executions_completed) / elapsed_s;
  result.p99_queue_delay_us = metrics.queue_delay_p99_ns / 1000.0;
  result.threads_spawned = metrics.threads_spawned;
  result.shards = metrics.shards;
  result.workers_per_shard = ShardedOptions().executor.workers;
  result.pool_workers = metrics.pool_workers;
  result.batches_dispatched = metrics.batches_dispatched;
  result.skipped_unchanged = metrics.skipped_unchanged;
  result.interval_ms = interval / wdg::kNsPerMs;
  return result;
}

ModeResult RunPooled(int checkers, wdg::DurationNs duration) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::WatchdogDriver::Options options;
  options.executor.workers = 4;
  options.executor.queue_capacity = 512;
  wdg::WatchdogDriver driver(clock, options);
  for (int i = 0; i < checkers; ++i) {
    wdg::CheckerOptions checker;
    checker.interval = kInterval;
    checker.timeout = wdg::Ms(400);
    checker.initial_delay = wdg::Ms(i % 50);
    driver.AddChecker(std::make_unique<wdg::ProbeChecker>(
        wdg::StrFormat("p%03d", i), "bench", [] { return wdg::Status::Ok(); },
        checker));
  }
  const wdg::TimeNs start = clock.NowNs();
  (void)driver.Start();
  clock.SleepFor(duration);
  const wdg::DriverMetricsSnapshot metrics = driver.DriverMetrics();
  const double elapsed_s = static_cast<double>(clock.NowNs() - start) /
                           static_cast<double>(wdg::kNsPerSec);
  (void)driver.Stop();
  ModeResult result;
  result.mode = "pooled";
  result.checkers = checkers;
  result.checks_per_sec =
      static_cast<double>(metrics.executions_completed) / elapsed_s;
  result.p99_queue_delay_us = metrics.queue_delay_p99_ns / 1000.0;
  result.threads_spawned = metrics.threads_spawned;
  return result;
}

// The storm run ("pooled-storm"): same probe fleet and fixed 4-worker pool as
// RunPooled, but kStormHangs checkers wedge on injected faults mid-run — each
// eats a worker until the driver abandons it at its deadline and spawns its
// replacement, so the pool loses capacity exactly when the queue is backing up.
ModeResult RunStorm(int checkers, wdg::DurationNs duration) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::FaultInjector injector(clock, /*seed=*/0x5eedbe9c);
  wdg::WatchdogDriver::Options options;
  options.executor.workers = 4;
  options.executor.queue_capacity = 512;
  wdg::WatchdogDriver driver(clock, options);

  const int hangs = checkers >= kStormHangs ? kStormHangs : 0;
  for (int i = 0; i < checkers - hangs; ++i) {
    wdg::CheckerOptions checker;
    checker.interval = kInterval;
    checker.timeout = wdg::Ms(400);
    checker.initial_delay = wdg::Ms(i % 50);
    driver.AddChecker(std::make_unique<wdg::ProbeChecker>(
        wdg::StrFormat("p%03d", i), "bench", [] { return wdg::Status::Ok(); },
        checker));
  }
  for (int i = 0; i < hangs; ++i) {
    wdg::CheckerOptions checker;
    checker.interval = kInterval;
    checker.timeout = wdg::Ms(60);  // short deadline so abandonment is quick
    checker.initial_delay = wdg::Ms(i % 50);
    const std::string site = wdg::StrFormat("bench.hang.%d", i);
    driver.AddChecker(std::make_unique<wdg::MimicChecker>(
        wdg::StrFormat("h%03d", i), "bench", nullptr,
        [&injector, site](const wdg::CheckContext&, wdg::MimicChecker&) {
          (void)injector.Act(site);
          return wdg::CheckResult::Pass();
        },
        checker));
  }

  const wdg::TimeNs start = clock.NowNs();
  (void)driver.Start();
  // Let the fleet warm up, then storm: every hang site wedges at once.
  clock.SleepFor(duration / 4);
  for (int i = 0; i < hangs; ++i) {
    wdg::FaultSpec spec;
    spec.id = wdg::StrFormat("storm.%d", i);
    spec.site_pattern = wdg::StrFormat("bench.hang.%d", i);
    spec.kind = wdg::FaultKind::kHang;
    injector.Inject(spec);
  }
  clock.SleepFor(duration / 2);
  injector.ClearAll();  // release the wedged threads; drains complete
  clock.SleepFor(duration / 4);

  const wdg::DriverMetricsSnapshot metrics = driver.DriverMetrics();
  const double elapsed_s = static_cast<double>(clock.NowNs() - start) /
                           static_cast<double>(wdg::kNsPerSec);
  (void)driver.Stop();

  ModeResult result;
  result.mode = "pooled-storm";
  result.checkers = checkers;
  result.checks_per_sec =
      static_cast<double>(metrics.executions_completed) / elapsed_s;
  result.p99_queue_delay_us = metrics.queue_delay_p99_ns / 1000.0;
  result.threads_spawned = metrics.threads_spawned;
  result.workers_abandoned = metrics.workers_abandoned;
  return result;
}

void WriteJson(const std::vector<ModeResult>& results, wdg::DurationNs duration) {
  FILE* out = std::fopen("BENCH_driver_scale.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not open BENCH_driver_scale.json for writing\n");
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"driver_scale\",\n");
  std::fprintf(out, "  \"interval_ms\": %lld,\n",
               static_cast<long long>(kInterval / wdg::kNsPerMs));
  std::fprintf(out, "  \"duration_ms\": %lld,\n",
               static_cast<long long>(duration / wdg::kNsPerMs));
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    std::fprintf(out,
                 "    {\"checkers\": %d, \"mode\": \"%s\", "
                 "\"checks_per_sec\": %.1f, \"p99_queue_delay_us\": %.1f, "
                 "\"threads_spawned\": %lld",
                 r.checkers, r.mode.c_str(), r.checks_per_sec,
                 r.p99_queue_delay_us, static_cast<long long>(r.threads_spawned));
    if (r.mode == "pooled-storm") {
      std::fprintf(out, ", \"workers_abandoned\": %lld",
                   static_cast<long long>(r.workers_abandoned));
    }
    if (r.shards > 0) {
      std::fprintf(out,
                   ", \"shards\": %d, \"workers_per_shard\": %d, "
                   "\"pool_workers\": %d, \"batches_dispatched\": %lld, "
                   "\"skipped_unchanged\": %lld, \"interval_ms\": %lld",
                   r.shards, r.workers_per_shard, r.pool_workers,
                   static_cast<long long>(r.batches_dispatched),
                   static_cast<long long>(r.skipped_unchanged),
                   static_cast<long long>(r.interval_ms));
    }
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_driver_scale.json\n");
}

// CI's fleet-scale gate: run only the 10k sharded config, self-check, and
// exit nonzero on a budget miss so the pipeline fails without parsing JSON.
int RunSmoke10k() {
  std::printf("=== driver scaling: 10k sharded smoke ===\n");
  const ModeResult r = RunSharded(10000, wdg::Ms(600));
  const int worker_cap = r.shards * r.workers_per_shard;
  bool ok = true;
  std::printf("checks/sec %.0f, p99 queue delay %.0f us, pool workers %d "
              "(cap %d), batches %lld\n",
              r.checks_per_sec, r.p99_queue_delay_us, r.pool_workers,
              worker_cap, static_cast<long long>(r.batches_dispatched));
  if (r.p99_queue_delay_us > 500.0) {
    std::fprintf(stderr, "SMOKE FAIL: p99 queue delay %.0f us > 500 us\n",
                 r.p99_queue_delay_us);
    ok = false;
  }
  if (r.pool_workers > worker_cap) {
    std::fprintf(stderr, "SMOKE FAIL: pool workers %d > shards x pool size %d\n",
                 r.pool_workers, worker_cap);
    ok = false;
  }
  if (r.checks_per_sec <= 0) {
    std::fprintf(stderr, "SMOKE FAIL: no checks completed\n");
    ok = false;
  }
  std::printf("10k sharded smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// Downscaled replica of the 1M row for CI: the million-checker options and
// the same ~500k/sec offered rate, but a 200k fleet and a sub-second window
// so the gate stays fast. Registration alone for a true 1M fleet takes longer
// than CI wants; capacity per core is what the row actually proves, and that
// is preserved by holding offered-rate and driver shape constant.
//
// Setup allocations per checker: the bench's own ProbeChecker is one; the
// rest is the driver (the slots vector, the name index and the shard member
// lists grow by doubling) and Start()'s wheel buckets. The flat name index
// measures 1.02; a node-based index adds one allocation per checker (2.02).
// The limit is that 1.02 plus a margin of 0.08.
constexpr double kSetupAllocsPerCheckerLimit = 1.10;

int RunSmoke1M() {
  std::printf("=== driver scaling: 1M-shape sharded smoke (200k @ 400ms) ===\n");
  const ModeResult r = RunShardedWith(ShardedMillionOptions(), 200000,
                                      wdg::Ms(400), wdg::Ms(800));
  const int worker_cap = r.shards * r.workers_per_shard;
  bool ok = true;
  std::printf("checks/sec %.0f, p99 queue delay %.0f us, pool workers %d "
              "(cap %d), batches %lld\n",
              r.checks_per_sec, r.p99_queue_delay_us, r.pool_workers,
              worker_cap, static_cast<long long>(r.batches_dispatched));
  const double allocs_per_checker =
      static_cast<double>(r.setup_allocs) / static_cast<double>(r.checkers);
  std::printf("registration + Start(): %.1f ms, %.3f heap allocations per checker "
              "(limit %.2f)\n",
              r.setup_ms, allocs_per_checker, kSetupAllocsPerCheckerLimit);
  if (allocs_per_checker > kSetupAllocsPerCheckerLimit) {
    std::fprintf(stderr,
                 "SMOKE FAIL: %.3f heap allocations per registered checker > %.2f\n",
                 allocs_per_checker, kSetupAllocsPerCheckerLimit);
    ok = false;
  }
  if (r.checks_per_sec < 250000.0) {
    std::fprintf(stderr,
                 "SMOKE FAIL: %.0f checks/sec < 250k at the 1M driver shape\n",
                 r.checks_per_sec);
    ok = false;
  }
  if (r.p99_queue_delay_us > 50000.0) {
    std::fprintf(stderr, "SMOKE FAIL: p99 queue delay %.0f us > 50 ms\n",
                 r.p99_queue_delay_us);
    ok = false;
  }
  if (r.pool_workers > worker_cap) {
    std::fprintf(stderr, "SMOKE FAIL: pool workers %d > shards x pool size %d\n",
                 r.pool_workers, worker_cap);
    ok = false;
  }
  std::printf("1M-shape sharded smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// Thread ids of this process, from /proc/self/task.
std::set<std::string> ThreadIds() {
  std::set<std::string> tids;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", error)) {
    tids.insert(entry.path().filename().string());
  }
  return tids;
}

// CPU time (ns) the threads have run, from the first field of each
// /proc/self/task/<tid>/schedstat; a thread that has exited counts 0.
int64_t ThreadsCpuNs(const std::set<std::string>& tids) {
  int64_t total = 0;
  for (const std::string& tid : tids) {
    std::ifstream in("/proc/self/task/" + tid + "/schedstat");
    long long cpu_ns = 0;
    if (in >> cpu_ns) {
      total += cpu_ns;
    }
  }
  return total;
}

// CI's wake-up gate for the kvs driver shape: 11 co-periodic checkers at
// 25 ms on 1 shard x 2 workers with default options. It gates on counts,
// which do not move with host load: checks per batch (the checkers launched
// together stay one batch) and scheduler passes per interval. Watchdog
// CPU-ns per check, from the schedstat of the threads Start() created, is
// printed for the record only.
int RunSmokeKvs() {
  std::printf("=== driver scaling: kvs shape smoke (11 x 25 ms, 1 shard x 2 workers) ===\n");
  constexpr int kCheckers = 11;
  constexpr wdg::DurationNs kKvsInterval = wdg::Ms(25);
  constexpr wdg::DurationNs kWindow = wdg::Sec(2);
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::WatchdogDriver::Options options;
  options.executor.workers = 2;
  wdg::WatchdogDriver driver(clock, options);
  for (int i = 0; i < kCheckers; ++i) {
    wdg::CheckerOptions checker;
    checker.interval = kKvsInterval;
    driver.AddChecker(std::make_unique<wdg::ProbeChecker>(
        wdg::StrFormat("kvs%02d", i), "bench", [] { return wdg::Status::Ok(); },
        checker));
  }
  const std::set<std::string> before = ThreadIds();
  (void)driver.Start();
  std::set<std::string> watchdog_threads;
  for (const std::string& tid : ThreadIds()) {
    if (before.count(tid) == 0) {
      watchdog_threads.insert(tid);
    }
  }
  clock.SleepFor(wdg::Ms(200));  // warm-up: slabs, wheel buckets, first batches
  const wdg::DriverMetricsSnapshot m0 = driver.DriverMetrics();
  const int64_t cpu0 = ThreadsCpuNs(watchdog_threads);
  const wdg::TimeNs t0 = clock.NowNs();
  clock.SleepFor(kWindow);
  const wdg::DriverMetricsSnapshot m1 = driver.DriverMetrics();
  const int64_t cpu1 = ThreadsCpuNs(watchdog_threads);
  const wdg::TimeNs t1 = clock.NowNs();
  (void)driver.Stop();

  const int64_t checks = m1.executions_dispatched - m0.executions_dispatched;
  const int64_t batches = m1.batches_dispatched - m0.batches_dispatched;
  const int64_t passes = m1.scheduler_passes - m0.scheduler_passes;
  const double intervals = static_cast<double>(t1 - t0) / static_cast<double>(kKvsInterval);
  const double checks_per_batch =
      batches > 0 ? static_cast<double>(checks) / static_cast<double>(batches) : 0;
  const double passes_per_interval = static_cast<double>(passes) / intervals;
  std::printf("checks %lld, batches %lld, checks/batch %.2f, scheduler passes/interval %.2f, "
              "watchdog cpu %.0f ns/check (%zu threads)\n",
              static_cast<long long>(checks), static_cast<long long>(batches),
              checks_per_batch, passes_per_interval,
              checks > 0 ? static_cast<double>(cpu1 - cpu0) / static_cast<double>(checks) : 0,
              watchdog_threads.size());
  bool ok = true;
  if (checks_per_batch < 8.0) {
    std::fprintf(stderr, "SMOKE FAIL: %.2f checks/batch < 8\n", checks_per_batch);
    ok = false;
  }
  if (passes_per_interval > 2.5) {
    std::fprintf(stderr, "SMOKE FAIL: %.2f scheduler passes/interval > 2.5\n",
                 passes_per_interval);
    ok = false;
  }
  std::printf("kvs shape smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool smoke_10k = false;
  bool smoke_1m = false;
  bool smoke_kvs = false;
  bool only_1m = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--smoke-10k") == 0) {
      smoke_10k = true;
    } else if (std::strcmp(argv[i], "--smoke-1m") == 0) {
      smoke_1m = true;
    } else if (std::strcmp(argv[i], "--smoke-kvs") == 0) {
      smoke_kvs = true;
    } else if (std::strcmp(argv[i], "--only-1m") == 0) {
      only_1m = true;
    }
  }
  if (smoke_10k) {
    return RunSmoke10k();  // no JSON: the smoke never perturbs trend baselines
  }
  if (smoke_1m) {
    return RunSmoke1M();
  }
  if (smoke_kvs) {
    return RunSmokeKvs();
  }
  if (only_1m) {
    const ModeResult r = RunSharded(1000000, wdg::Sec(1));
    std::printf("sharded @ %d checkers: %.0f checks/s, p99 %.0f us, "
                "%d workers (cap %d), %lld batches\n",
                r.checkers, r.checks_per_sec, r.p99_queue_delay_us,
                r.pool_workers, r.shards * r.workers_per_shard,
                static_cast<long long>(r.batches_dispatched));
    return 0;
  }
  const wdg::DurationNs duration = quick ? wdg::Ms(300) : wdg::Sec(1);
  const std::vector<int> fleet_sizes = {1, 8, 64, 256};
  const std::vector<int> sharded_fleets =
      quick ? std::vector<int>{1000, 10000}
            : std::vector<int>{1000, 10000, 100000, 1000000};

  std::printf("=== driver scaling: pooled executor ===\n");
  std::printf("interval %lld ms, %s run (%lld ms per config)\n\n",
              static_cast<long long>(kInterval / wdg::kNsPerMs),
              quick ? "quick" : "full",
              static_cast<long long>(duration / wdg::kNsPerMs));

  std::vector<ModeResult> results;
  for (const int checkers : fleet_sizes) {
    results.push_back(RunPooled(checkers, duration));
    if (checkers >= 64) {
      // The storm only queues work behind the hangs where the fleet is big
      // enough to keep the pool busy.
      results.push_back(RunStorm(checkers, duration));
    }
  }
  for (const int checkers : sharded_fleets) {
    results.push_back(RunSharded(checkers, duration));
  }
  results.push_back(RunShardedIdle(quick ? 1000 : 10000, duration));

  wdg::TablePrinter table({{"checkers", 9},
                           {"mode", 17},
                           {"checks/sec", 11},
                           {"p99 q-delay (us)", 17},
                           {"threads spawned", 16},
                           {"abandoned", 10},
                           {"batches/skipped", 16}});
  table.PrintHeader();
  for (const ModeResult& r : results) {
    table.PrintRow(
        {wdg::StrFormat("%d", r.checkers), r.mode,
         wdg::StrFormat("%.0f", r.checks_per_sec),
         wdg::StrFormat("%.0f", r.p99_queue_delay_us),
         wdg::StrFormat("%lld", static_cast<long long>(r.threads_spawned)),
         r.mode == "pooled-storm"
             ? wdg::StrFormat("%lld", static_cast<long long>(r.workers_abandoned))
             : "-",
         r.shards > 0
             ? wdg::StrFormat("%lld/%lld",
                              static_cast<long long>(r.batches_dispatched),
                              static_cast<long long>(r.skipped_unchanged))
             : "-"});
  }
  table.PrintRule();
  std::printf("\nthe pooled executor holds thread creation flat at the pool size; "
              "the pooled-storm rows additionally absorb a %d-checker hang "
              "storm, one abandonment and one respawned worker per hang\n",
              kStormHangs);
  for (const ModeResult& r : results) {
    if (r.mode == "sharded") {
      std::printf("sharded @ %d checkers: %.0f checks/s, p99 %.0f us, "
                  "%d workers (cap %d = shards x pool)%s\n",
                  r.checkers, r.checks_per_sec, r.p99_queue_delay_us,
                  r.pool_workers, r.shards * r.workers_per_shard,
                  r.pool_workers <= r.shards * r.workers_per_shard
                      ? "" : " (OVER worker cap)");
    } else if (r.mode == "sharded-idle") {
      std::printf("sharded-idle @ %d checkers: %lld runs skipped with "
                  "subscribed keys unchanged, %.0f checks/s actually ran\n",
                  r.checkers, static_cast<long long>(r.skipped_unchanged),
                  r.checks_per_sec);
    }
  }
  WriteJson(results, duration);
  return 0;
}
