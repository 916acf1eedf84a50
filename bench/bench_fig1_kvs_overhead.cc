// Figure 1 reproduction: "kvs running with its watchdog in production".
//
// The figure shows the architecture: hooks in the main program, one-way state
// sync into contexts, checkers + driver sharing the address space. This bench
// (a) prints the live inventory of exactly those pieces, and (b) quantifies
// the paper's performance claim for concurrent execution — that checking adds
// no significant cost to the normal execution path: client throughput and
// latency with and without the watchdog.
#include <cstdio>

#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/eval/armed_system.h"
#include "src/eval/table.h"
#include "src/kvs/client.h"

namespace {

struct RunStats {
  double throughput_rps = 0;
  double p50_us = 0;
  double p99_us = 0;
  int64_t requests = 0;
  int checkers = 0;
  int hooks_armed = 0;
  int64_t checker_runs = 0;
  awd::GenerationReport report;
};

RunStats RunWorkload(bool with_watchdog, wdg::DurationNs duration) {
  wdg::ArmedSystemOptions options;
  options.disk.base_latency = wdg::Us(5);
  options.disk.per_kb_latency = 0;
  options.net.base_latency = wdg::Us(20);
  options.kvs.flush_threshold_bytes = 1024;
  options.kvs.flush_poll = wdg::Ms(10);
  wdg::ArmedSystem sys(wdg::System::kKvs, options);
  (void)sys.Boot();
  wdg::Clock& clock = sys.clock();
  wdg::WatchdogDriver& driver = sys.driver();
  RunStats stats;
  if (with_watchdog) {
    awd::GenerationOptions gen;
    gen.checker.interval = wdg::Ms(20);
    gen.checker.timeout = wdg::Ms(250);
    stats.report = sys.Arm(gen);
    (void)sys.Start();
  }

  // Closed-loop client workload.
  kvs::KvsClient client(sys.net(), "bench", "kvs1", wdg::Ms(500));
  wdg::Histogram latency;
  const wdg::TimeNs start = clock.NowNs();
  int64_t i = 0;
  while (clock.NowNs() - start < duration) {
    const std::string key = wdg::StrFormat("k%03lld", static_cast<long long>(i % 128));
    const wdg::TimeNs op_start = clock.NowNs();
    if (i % 4 == 3) {
      (void)client.Get(key);
    } else {
      (void)client.Set(key, std::string(64, 'v'));
    }
    latency.Record(static_cast<double>(clock.NowNs() - op_start));
    ++i;
  }
  const double elapsed_s =
      static_cast<double>(clock.NowNs() - start) / static_cast<double>(wdg::kNsPerSec);

  stats.throughput_rps = static_cast<double>(i) / elapsed_s;
  stats.p50_us = latency.Percentile(50) / 1000.0;
  stats.p99_us = latency.Percentile(99) / 1000.0;
  stats.requests = i;
  stats.checkers = driver.checker_count();
  stats.hooks_armed = stats.report.hooks_armed;
  for (const std::string& name : driver.CheckerNames()) {
    stats.checker_runs += driver.StatsFor(name).runs;
  }
  return stats;
}

}  // namespace

int main() {
  std::printf("=== Figure 1: kvs running with its watchdog (architecture + overhead) ===\n\n");
  const wdg::DurationNs duration = wdg::Sec(2);

  const RunStats without = RunWorkload(/*with_watchdog=*/false, duration);
  const RunStats with = RunWorkload(/*with_watchdog=*/true, duration);

  std::printf("Architecture inventory (the boxes of Figure 1):\n");
  std::printf("  main program components: listener, executor, wal, flusher, compaction,\n");
  std::printf("                           replication, partition manager (+ heartbeats)\n");
  std::printf("  watchdog checkers:       %d generated mimic checkers\n", with.checkers);
  for (const auto& fn : with.report.program.functions) {
    std::printf("    - %-28s %zu reduced ops (from %s)\n", fn.name.c_str(), fn.ops.size(),
                fn.component.c_str());
  }
  std::printf("  contexts:                %zu (one per long-running region)\n",
              with.report.plan.contexts.size());
  std::printf("  hooks armed in P:        %d (one-way state sync)\n", with.hooks_armed);
  std::printf("  checker executions:      %lld over the run\n\n",
              static_cast<long long>(with.checker_runs));

  wdg::TablePrinter table({{"configuration", 22},
                           {"throughput (req/s)", 19},
                           {"p50 latency (us)", 17},
                           {"p99 latency (us)", 17}});
  table.PrintHeader();
  table.PrintRow({"kvs alone", wdg::StrFormat("%.0f", without.throughput_rps),
                  wdg::StrFormat("%.0f", without.p50_us),
                  wdg::StrFormat("%.0f", without.p99_us)});
  table.PrintRow({"kvs + watchdog", wdg::StrFormat("%.0f", with.throughput_rps),
                  wdg::StrFormat("%.0f", with.p50_us), wdg::StrFormat("%.0f", with.p99_us)});
  table.PrintRule();
  const double overhead =
      (without.throughput_rps - with.throughput_rps) / without.throughput_rps * 100.0;
  std::printf("\nthroughput overhead of concurrent checking: %.1f%% "
              "(paper claim: no significant cost on normal execution)\n",
              overhead);
  return 0;
}
