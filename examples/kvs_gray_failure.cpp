// Gray-failure walkthrough on kvs: a fail-slow disk and a wedged compaction,
// the two classic "the process looks fine" failures from the paper's intro.
// Shows why heartbeats and client probes miss them while the generated mimic
// watchdog catches both and names the failing operation. Exits 1 if the
// watchdog misses either.
#include <cstdio>

#include "src/common/strings.h"
#include "src/detectors/heartbeat.h"
#include "src/eval/armed_system.h"
#include "src/kvs/client.h"

namespace {

void Banner(const char* text) { std::printf("\n--- %s ---\n", text); }

// Waits for an alarm at `op_site` and prints it; false if none comes.
bool ReportAlarmAt(wdg::WatchdogDriver& driver, const std::string& op_site,
                   wdg::DurationNs within) {
  const auto at_site = [&op_site](const wdg::FailureSignature& sig) {
    return sig.location.op_site == op_site;
  };
  if (driver.WaitForFailure(within, at_site)) {
    for (const auto& sig : driver.Failures()) {
      if (at_site(sig)) {
        std::printf("watchdog: %s\n", sig.ToString().c_str());
        return true;
      }
    }
  }
  std::printf("watchdog: no alarm at %s (missed)\n", op_site.c_str());
  return false;
}

}  // namespace

int main() {
  wdg::ArmedSystemOptions options;
  options.disk.base_latency = wdg::Us(20);
  options.kvs.heartbeat_target = "monitor";
  options.kvs.heartbeat_interval = wdg::Ms(20);
  options.kvs.flush_threshold_bytes = 512;
  options.kvs.flush_poll = wdg::Ms(10);
  options.kvs.compaction_max_tables = 3;
  options.kvs.compaction_poll = wdg::Ms(20);
  wdg::ArmedSystem kvs(wdg::System::kKvs, options);
  (void)kvs.Boot();
  wdg::Clock& clock = kvs.clock();

  // Baseline detector: heartbeat crash FD.
  wdg::HeartbeatDetectorOptions hb_options;
  hb_options.suspicion_timeout = wdg::Ms(120);
  wdg::HeartbeatDetector heartbeat(clock, kvs.net(), hb_options);
  heartbeat.Track("kvs1");
  heartbeat.Start();

  // The generated watchdog.
  awd::GenerationOptions gen;
  gen.checker.interval = wdg::Ms(25);
  gen.checker.timeout = wdg::Ms(300);
  kvs.Arm(gen);
  if (const wdg::Status st = kvs.Start(); !st.ok()) {
    std::fprintf(stderr, "driver Start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Write in waves across flush polls until a compaction has run: a checker
  // whose context never synchronized stays dormant and could not see the
  // wedged merge below.
  kvs::KvsClient client(kvs.net(), "app", "kvs1", wdg::Ms(400));
  int key = 0;
  for (int wave = 0; wave < 30 && kvs.kvs()->compaction().compaction_count() == 0; ++wave) {
    for (int i = 0; i < 10; ++i) {
      (void)client.Set(wdg::StrFormat("k%03d", key++), std::string(64, 'd'));
    }
    clock.SleepFor(wdg::Ms(25));
  }
  clock.SleepFor(wdg::Ms(200));

  Banner("failure 1: fail-slow disk (limplock)");
  std::printf("the disk now takes 400ms per op — not dead, just limping\n");
  wdg::FaultSpec limp;
  limp.id = "limp";
  limp.site_pattern = "disk.write";
  limp.kind = wdg::FaultKind::kDelay;
  limp.delay = wdg::Ms(400);
  kvs.injector().Inject(limp);

  (void)client.Set("during-limp", "value");
  std::printf("client SET during limplock: ok (memtable absorbs it)\n");
  const bool limp_caught = ReportAlarmAt(kvs.driver(), "disk.write", wdg::Sec(3));
  std::printf("heartbeat detector: %s\n",
              heartbeat.Suspects("kvs1") ? "SUSPECTS (unexpected)" : "leader looks healthy");
  kvs.injector().Remove("limp");
  clock.SleepFor(wdg::Ms(300));

  Banner("failure 2: compaction task wedges");
  std::printf("the background compaction merge hangs — clients see nothing\n");
  wdg::FaultSpec stuck;
  stuck.id = "stuck";
  stuck.site_pattern = "compact.merge";
  stuck.kind = wdg::FaultKind::kHang;
  kvs.injector().Inject(stuck);

  (void)client.Set("during-hang", "value");
  const auto read = client.Get("during-hang");
  std::printf("client SET+GET during the hang: %s\n", read.ok() ? "ok" : "failed");
  const bool hang_caught = ReportAlarmAt(kvs.driver(), "compact.merge", wdg::Sec(4));
  std::printf("heartbeat detector: %s\n",
              heartbeat.Suspects("kvs1") ? "SUSPECTS (unexpected)" : "leader looks healthy");

  if (!limp_caught || !hang_caught) {
    std::printf("\nFAILED: the watchdog missed a gray failure.\n");
    return 1;
  }
  std::printf("\ndone: both gray failures caught by the watchdog, both invisible to the "
              "crash FD.\n");
  return 0;
}
