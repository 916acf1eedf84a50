// Narrated reproduction of ZOOKEEPER-2201 on minizk (the paper's §4.2 case
// study): a network fault wedges the write pipeline inside a critical
// section, every conventional health signal stays green, and the generated
// watchdog is the only detector that fires — with the blocked call pinpointed.
// Exits 1 if the watchdog misses the wedge.
#include <cstdio>

#include "src/common/strings.h"
#include "src/eval/armed_system.h"
#include "src/minizk/client.h"

int main() {
  wdg::ArmedSystem zk(wdg::System::kMinizk);
  if (!zk.Boot().ok()) {
    return 1;
  }
  wdg::Clock& clock = zk.clock();
  minizk::ZkNode& leader = *zk.zk();
  awd::GenerationOptions gen;
  gen.checker.interval = wdg::Ms(50);
  gen.checker.timeout = wdg::Ms(300);
  zk.Arm(gen);
  if (const wdg::Status st = zk.Start(); !st.ok()) {
    std::fprintf(stderr, "driver Start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  minizk::ZkClient client(zk.net(), "app", "zk-leader", wdg::Ms(300));
  std::printf("cluster up: leader + follower, watchdog generated and running\n");
  (void)client.Create("/config/db", "primary=host-a");
  (void)client.Create("/config/cache", "ttl=60");
  std::printf("wrote two znodes; processor committed %lld txns\n",
              static_cast<long long>(leader.processor().committed()));
  clock.SleepFor(wdg::Ms(100));

  std::printf("\n>>> network issue: the leader->follower sync link hangs <<<\n\n");
  wdg::FaultSpec hang;
  hang.id = "zk2201";
  hang.site_pattern = "net.send.zk-f1";
  hang.kind = wdg::FaultKind::kHang;
  zk.injector().Inject(hang);

  std::printf("operator's view of the leader during the failure:\n");
  const wdg::Status write = client.Set("/config/db", "primary=host-b");
  std::printf("  write /config/db .... %s\n", write.ToString().c_str());
  const auto read = client.Get("/config/db");
  std::printf("  read  /config/db .... %s\n", read.ok() ? read->c_str() : "FAILED");
  const auto ruok = client.Ruok();
  std::printf("  admin 'ruok' ........ %s\n", ruok.ok() ? ruok->c_str() : "no answer");
  const int64_t pings = leader.pings_acked();
  clock.SleepFor(wdg::Ms(120));
  std::printf("  session heartbeats .. %s (%lld -> %lld acks)\n",
              leader.pings_acked() > pings ? "flowing" : "STOPPED",
              static_cast<long long>(pings), static_cast<long long>(leader.pings_acked()));

  std::printf("\nwaiting for the watchdog...\n");
  const bool detected = zk.driver().WaitForFailure(wdg::Sec(5));
  if (detected) {
    const auto failure = *zk.driver().FirstFailure();
    std::printf("  WATCHDOG: %s\n", failure.ToString().c_str());
    std::printf("  context for reproduction: %s\n", failure.context_dump.c_str());
    std::printf("\nthe write pipeline is wedged inside ProcessWrite's critical section —\n"
                "exactly what ZOOKEEPER-2201's operators spent hours discovering by hand.\n");
  } else {
    std::printf("  the watchdog stayed silent: the wedge went undetected\n");
  }

  zk.injector().ClearAll();
  clock.SleepFor(wdg::Ms(200));
  const wdg::Status recovered = client.Set("/config/db", "primary=host-b");
  std::printf("\nnetwork restored; retry write: %s\n", recovered.ToString().c_str());

  return detected ? 0 : 1;
}
