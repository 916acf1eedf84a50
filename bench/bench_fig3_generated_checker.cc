// Figure 3 reproduction: the generated checker for the serializeSnapshot
// reduction — its emitted source (the paper shows generated Java; we emit the
// C++-flavored equivalent), and the generated checker executing against a
// live minizk node: first with its context not ready (the guard of Figure 3
// lines 9-15), then healthy, then detecting an injected fault.
#include <cstdio>

#include "src/autowd/autowatchdog.h"
#include "src/autowd/codegen.h"
#include "src/common/strings.h"
#include "src/eval/armed_system.h"
#include "src/minizk/client.h"
#include "src/minizk/ir_model.h"

int main() {
  std::printf("=== Figure 3: the generated mimic checker ===\n\n");

  wdg::ArmedSystemOptions options;
  options.disk.base_latency = wdg::Us(5);
  options.net.base_latency = wdg::Us(20);
  options.zk.snapshot_every_n = 2;
  const awd::Module module = minizk::DescribeIr(options.zk);

  // Emit the generated source for the processor region (which subsumes the
  // serializeSnapshot chain of Figure 2/3).
  const awd::GenerationReport analysis = awd::Analyze(module);
  for (const awd::ReducedFunction& fn : analysis.program.functions) {
    if (fn.origin != "ProcessorLoop") {
      continue;
    }
    std::printf("%s\n", awd::EmitCheckerSource(fn, analysis.plan).c_str());
  }

  // Now run it for real.
  wdg::ArmedSystem zk(wdg::System::kMinizk, options);
  if (!zk.Boot().ok()) {
    std::fprintf(stderr, "leader failed to start\n");
    return 1;
  }
  wdg::Clock& clock = zk.clock();
  wdg::WatchdogDriver& driver = zk.driver();
  awd::GenerationOptions gen;
  gen.checker.interval = wdg::Ms(20);
  gen.checker.timeout = wdg::Ms(250);
  zk.Arm(gen);
  (void)zk.Start();

  std::printf("=== live execution ===\n\n");
  clock.SleepFor(wdg::Ms(150));
  const auto before = driver.StatsFor("ProcessorLoop_reduced");
  std::printf("[phase 1] no writes processed yet -> checker context not ready\n");
  std::printf("          ProcessorLoop_reduced: %lld runs, %lld context-not-ready, %lld "
              "executed\n\n",
              static_cast<long long>(before.runs),
              static_cast<long long>(before.context_not_ready),
              static_cast<long long>(before.passes));

  minizk::ZkClient client(zk.net(), "zc", "zk-leader", wdg::Sec(2));
  for (int i = 0; i < 4; ++i) {
    (void)client.Create(wdg::StrFormat("/node%d", i), "data");
  }
  clock.SleepFor(wdg::Ms(200));
  const auto healthy = driver.StatsFor("ProcessorLoop_reduced");
  std::printf("[phase 2] writes flowing, hooks fired -> checker executes and passes\n");
  std::printf("          ProcessorLoop_reduced: %lld runs, %lld passes, %lld fails\n\n",
              static_cast<long long>(healthy.runs), static_cast<long long>(healthy.passes),
              static_cast<long long>(healthy.fails));

  std::printf("[phase 3] injecting txn-log I/O errors...\n");
  wdg::FaultSpec fault;
  fault.id = "txnlog";
  fault.site_pattern = "disk.append";
  fault.kind = wdg::FaultKind::kError;
  zk.injector().Inject(fault);
  const bool detected = driver.WaitForFailure(wdg::Sec(3));
  if (detected) {
    const auto failure = *driver.FirstFailure();
    std::printf("          DETECTED: %s\n", failure.ToString().c_str());
    std::printf("          failure-inducing context: %s\n", failure.context_dump.c_str());
  } else {
    std::printf("          (no detection — unexpected)\n");
  }
  return detected ? 0 : 1;
}
