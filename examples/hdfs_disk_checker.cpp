// The HDFS DataNode disk checker story (§3.3, Table 2's mimic exemplar):
//
//   "the disk checker module in HDFS initially only checked directory
//    permissions, but later it was enhanced [HADOOP-13738] to create some
//    files and invoke functions from the DataNode main program to do real
//    I/O in a similar way."
//
// This demo puts both generations of the checker against the same dying
// disk: the permissions-only check stays green forever; the generated mimic
// checker (real I/O through the write path's op sites) alarms and pinpoints.
// Exits 1 if the mimic checker misses the dead disk.
#include <cstdio>

#include "src/eval/armed_system.h"

int main() {
  wdg::ArmedSystem hdfs(wdg::System::kMinihdfs);
  if (!hdfs.Boot().ok()) {
    return 1;
  }
  wdg::WatchdogDriver& driver = hdfs.driver();
  awd::GenerationOptions gen;
  gen.checker.interval = wdg::Ms(25);
  gen.checker.timeout = wdg::Ms(250);
  hdfs.Arm(gen);
  if (const wdg::Status st = hdfs.Start(); !st.ok()) {
    std::fprintf(stderr, "driver Start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Store a block so the write-path context synchronizes.
  wdg::Endpoint* client = hdfs.net().CreateEndpoint("client");
  (void)client->Call("dn1", minihdfs::kMsgWriteBlock,
                     std::string("1") + '\x1f' + "block data", wdg::Ms(500));
  hdfs.clock().SleepFor(wdg::Ms(150));
  std::printf("healthy DataNode: 1 block stored, watchdog silent (%zu alarms)\n",
              driver.Failures().size());

  std::printf("\n>>> the disk dies for writes (reads and listings still work) <<<\n\n");
  wdg::FaultSpec dead;
  dead.id = "dead";
  dead.site_pattern = "disk.write";
  dead.kind = wdg::FaultKind::kError;
  hdfs.injector().Inject(dead);

  // Generation 1: the original permissions-only check.
  const wdg::Status weak = hdfs.hdfs()->CheckDirsPermissionsOnly();
  std::printf("permissions-only disk check (pre-HADOOP-13738): %s\n", weak.ToString().c_str());

  // Generation 2: the generated mimic checker doing real I/O.
  const bool detected = driver.WaitForFailure(wdg::Sec(3));
  if (detected) {
    const auto failure = *driver.FirstFailure();
    std::printf("generated mimic disk checker:                   ALARM\n");
    std::printf("  %s\n", failure.ToString().c_str());
  } else {
    std::printf("generated mimic disk checker:                   silent (missed)\n");
  }
  std::printf("\nheartbeats to the NameNode during all of this: %s\n",
              hdfs.namenode()->IsLive("dn1", wdg::Ms(100)) ? "flowing (node 'healthy')"
                                                            : "stopped");
  return detected ? 0 : 1;
}
