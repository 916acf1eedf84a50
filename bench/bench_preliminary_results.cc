// §4.2 "Preliminary Results" reproduction:
//
//   "We have been able to successfully apply AutoWatchdog to three pieces of
//    large-scale real-world system software — ZooKeeper, Cassandra and HDFS —
//    and generate tens of checkers for each."
//
// This bench runs the full generation pipeline against all three in-repo
// analogs (minizk / kvs / minihdfs), then injects each system's signature
// gray failure and reports detection + pinpointing, in one table. Exits 1
// unless every system's watchdog alarms at the faulty operation.
#include <cstdio>
#include <functional>
#include <optional>

#include "src/common/strings.h"
#include "src/eval/armed_system.h"
#include "src/eval/table.h"
#include "src/kvs/client.h"
#include "src/minizk/client.h"

namespace {

struct SystemCase {
  wdg::System system;
  const char* analog_of;
  const char* fault_desc;
  const char* fault_site;
  wdg::FaultKind fault_kind;
  const char* pinpoint_site;  // the op a correct alarm names
  wdg::ArmedSystemOptions options;
  // Drives traffic until the armed contexts are ready, calls `inject`, and
  // sends whatever request the fault needs to bite.
  std::function<void(wdg::ArmedSystem&, const std::function<void()>& inject)> workload;
};

void ZkWorkload(wdg::ArmedSystem& sys, const std::function<void()>& inject) {
  minizk::ZkClient client(sys.net(), "zc", "zk-leader", wdg::Ms(300));
  (void)client.Create("/app", "v0");
  sys.clock().SleepFor(wdg::Ms(100));
  inject();
  (void)client.Set("/app", "v1");  // wedge the processor
}

// Spread writes across flush polls so several tables accumulate and a
// compaction actually runs (arming the compaction checker's context).
void KvsWorkload(wdg::ArmedSystem& sys, const std::function<void()>& inject) {
  kvs::KvsClient client(sys.net(), "c", "kvs1", wdg::Ms(300));
  int key = 0;
  for (int wave = 0; wave < 30 && sys.kvs()->compaction().compaction_count() == 0; ++wave) {
    for (int i = 0; i < 10; ++i) {
      (void)client.Set(wdg::StrFormat("k%03d", key++), std::string(64, 'v'));
    }
    sys.clock().SleepFor(wdg::Ms(25));
  }
  sys.clock().SleepFor(wdg::Ms(50));
  inject();
}

void HdfsWorkload(wdg::ArmedSystem& sys, const std::function<void()>& inject) {
  wdg::Endpoint* client = sys.net().CreateEndpoint("hdfs-client");
  (void)client->Call("dn1", minihdfs::kMsgWriteBlock, std::string("1") + '\x1f' + "block",
                     wdg::Ms(500));
  sys.clock().SleepFor(wdg::Ms(100));
  inject();
}

// Arms one system, injects its fault, prints its row; true on a detection at
// the faulty op.
bool RunAndPrint(const SystemCase& c, wdg::TablePrinter& table) {
  wdg::ArmedSystem sys(c.system, c.options);
  if (!sys.Boot().ok()) {
    return false;
  }
  awd::GenerationOptions gen;
  gen.checker.interval = wdg::Ms(25);
  gen.checker.timeout = wdg::Ms(250);
  const awd::GenerationReport report = sys.Arm(gen);
  (void)sys.Start();

  wdg::TimeNs t0 = 0;
  c.workload(sys, [&] {
    t0 = sys.clock().NowNs();
    wdg::FaultSpec fault;
    fault.id = "f";
    fault.site_pattern = c.fault_site;
    fault.kind = c.fault_kind;
    sys.injector().Inject(fault);
  });
  const auto at_fault = [&](const wdg::FailureSignature& sig) {
    return sig.detect_time >= t0 && sig.location.op_site == c.pinpoint_site;
  };
  std::optional<wdg::FailureSignature> hit;
  if (sys.driver().WaitForFailure(wdg::Sec(3), at_fault)) {
    for (const wdg::FailureSignature& sig : sys.driver().Failures()) {
      if (at_fault(sig)) {
        hit = sig;
        break;
      }
    }
  }
  table.PrintRow(
      {wdg::SystemName(c.system), c.analog_of,
       wdg::StrFormat("%zu", report.checker_names.size()),
       wdg::StrFormat("%d", report.program.stats.ops_retained),
       wdg::StrFormat("%d", report.hooks_armed), c.fault_desc, hit ? "yes" : "NO",
       hit ? wdg::StrFormat("%.1f l.s", wdg::ToLogicalSeconds(hit->detect_time - t0)) : "-",
       hit ? hit->location.ToString() : ""});
  return hit.has_value();
}

}  // namespace

int main() {
  std::printf("=== 4.2 preliminary results: AutoWatchdog applied to three systems ===\n\n");
  std::vector<SystemCase> cases;
  cases.push_back({wdg::System::kMinizk, "ZooKeeper", "sync link hang (ZK-2201)",
                   "net.send.zk-f1", wdg::FaultKind::kHang, "lock.zk.commit", {}, ZkWorkload});
  wdg::ArmedSystemOptions kvs_options;
  kvs_options.disk = wdg::DiskOptions{.base_latency = wdg::Us(5), .per_kb_latency = 0};
  kvs_options.kvs.flush_threshold_bytes = 512;
  kvs_options.kvs.flush_poll = wdg::Ms(10);
  kvs_options.kvs.compaction_max_tables = 3;
  kvs_options.kvs.compaction_poll = wdg::Ms(15);
  cases.push_back({wdg::System::kKvs, "Cassandra", "compaction task stuck", "compact.merge",
                   wdg::FaultKind::kHang, "compact.merge", kvs_options, KvsWorkload});
  cases.push_back({wdg::System::kMinihdfs, "HDFS", "dead disk (HADOOP-13738)", "disk.write",
                   wdg::FaultKind::kError, "disk.write", {}, HdfsWorkload});

  wdg::TablePrinter table({{"system", 9},
                           {"analog of", 10},
                           {"checkers", 9},
                           {"ops", 4},
                           {"hooks", 6},
                           {"injected gray failure", 26},
                           {"detected", 9},
                           {"latency", 10},
                           {"pinpoint", 42}});
  table.PrintHeader();
  bool all = true;
  for (const SystemCase& c : cases) {
    all = RunAndPrint(c, table) && all;
  }
  table.PrintRule();
  std::printf("\npaper: tens of checkers generated per system; the ZK-2201 repro detected in\n"
              "~7 s with the blocked call pinpointed. (\"l.s\" = logical seconds at paper\n"
              "scale; the simulator runs 10x faster than wall clock.)\n");
  return all ? 0 : 1;
}
