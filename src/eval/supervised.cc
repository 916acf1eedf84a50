#include "src/eval/supervised.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/fault/fault_injector.h"
#include "src/kvs/server.h"
#include "src/minihdfs/datanode.h"
#include "src/minizk/server.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_net.h"
#include "src/supervisor/wdog_client.h"
#include "src/watchdog/builder.h"
#include "src/watchdog/driver.h"

namespace wdg {

namespace {

constexpr char kHangFaultId[] = "supervised.disk.hang";

FaultSpec DiskHang() {
  FaultSpec hang;
  hang.id = kHangFaultId;
  hang.site_pattern = "disk.*";
  hang.kind = FaultKind::kHang;
  return hang;
}

// One incarnation of the supervised process: system node + in-process driver
// + the pipe client the driver kicks through. Declaration order matters for
// teardown: the driver's Stop/unsubscribe runs before the client dies.
struct Instance {
  std::unique_ptr<WdogClient> client;
  std::unique_ptr<kvs::KvsNode> kvs;
  std::unique_ptr<minizk::ZkNode> zk;
  std::unique_ptr<minihdfs::DataNode> hdfs;
  std::unique_ptr<WatchdogDriver> driver;
  int incarnation = 0;

  void Shutdown() {
    if (driver) {
      (void)driver->Stop();  // release_on_stop frees any fault-parked probe
      driver.reset();
    }
    if (kvs) kvs->Stop();
    if (zk) zk->Stop();
    if (hdfs) hdfs->Stop();
  }
};

// The simulated process the wdogd restart/reboot hooks operate on. Hooks run
// on the wdogd daemon thread and must not block on the subscribe handshake
// (the daemon loop itself sends the ack), so they only flag a request; a
// dedicated respawn thread — wdogd's fork/exec stand-in — does the boot.
class SupervisedProcess {
 public:
  SupervisedProcess(const SupervisedTrialOptions& options, Clock& clock,
                    FaultInjector& injector, SimDisk& disk, SimNet& net, Wdogd& wdogd)
      : options_(options), clock_(clock), injector_(injector), disk_(disk), net_(net),
        wdogd_(wdogd) {
    respawner_ = JoiningThread([this] { RespawnLoop(); });
  }

  ~SupervisedProcess() {
    stop_.Request();
    wake_.Notify();
    respawner_.Join();
    std::lock_guard<std::mutex> lock(mu_);
    if (current_) {
      current_->Shutdown();
      current_.reset();
    }
  }

  Status Boot() {
    std::lock_guard<std::mutex> lock(mu_);
    return BootLocked();
  }

  // wdogd hooks ----------------------------------------------------------
  Status RequestRestart() {
    restart_requested_.store(true, std::memory_order_release);
    wake_.Notify();
    return Status::Ok();
  }

  void RequestReboot() {
    reboot_requested_.store(true, std::memory_order_release);
    wake_.Notify();
  }

  bool reboot_done() const { return reboot_done_.load(std::memory_order_acquire); }
  int incarnations() const { return incarnations_.load(std::memory_order_acquire); }

 private:
  Status BootLocked() {
    auto instance = std::make_unique<Instance>();
    instance->incarnation = incarnations_.fetch_add(1, std::memory_order_acq_rel) + 1;

    SimProcess hooks;
    hooks.restart = [this] { return RequestRestart(); };
    hooks.reboot = [this] { RequestReboot(); };
    auto pipe = wdogd_.Connect(std::move(hooks));
    if (!pipe.ok()) {
      return pipe.status();
    }
    instance->client = std::make_unique<WdogClient>(clock_, std::move(*pipe));

    const std::string name = SystemName(options_.system);
    switch (options_.system) {
      case System::kKvs: {
        kvs::KvsOptions node_options;
        node_options.node_id = "kvs1";
        node_options.data_dir = "/supervised/kvs";
        node_options.flush_poll = Ms(10);
        instance->kvs = std::make_unique<kvs::KvsNode>(clock_, disk_, net_, node_options);
        WDG_RETURN_IF_ERROR(instance->kvs->Start());
        break;
      }
      case System::kMinizk: {
        minizk::ZkOptions node_options;
        node_options.data_dir = "/supervised/zk";
        instance->zk = std::make_unique<minizk::ZkNode>(clock_, disk_, net_, node_options);
        WDG_RETURN_IF_ERROR(instance->zk->Start());
        break;
      }
      case System::kMinihdfs: {
        minihdfs::DataNodeOptions node_options;
        node_options.data_dir = "/supervised/hdfs";
        instance->hdfs =
            std::make_unique<minihdfs::DataNode>(clock_, disk_, net_, node_options);
        WDG_RETURN_IF_ERROR(instance->hdfs->Start());
        break;
      }
    }

    WatchdogDriver::Options driver_options;
    driver_options.release_on_stop = [this] { injector_.ClearAll(); };
    instance->driver = std::make_unique<WatchdogDriver>(clock_, driver_options);

    // The checker does real disk I/O through the same SimDisk the node uses:
    // the injected hang parks it, the driver's liveness proof fails, and the
    // kicks stop — fate-sharing, observable only from outside the process.
    DriverSupervision supervision;
    supervision.client = instance->client.get();
    supervision.name = name;
    supervision.kick_interval = options_.kick_interval;
    supervision.kick_deadline = options_.kick_deadline;
    SimDisk* disk = &disk_;
    const std::string probe_path =
        StrFormat("/supervised/%s/probe.%d", name.c_str(), instance->incarnation);
    Status registered =
        CheckerBuilder("disk-probe")
            .Component(name + ".disk")
            .Interval(options_.kick_interval)
            .Deadline(options_.kick_deadline)
            .Probe([disk, probe_path] {
              if (!disk->Exists(probe_path)) {
                WDG_RETURN_IF_ERROR(disk->Create(probe_path));
              }
              WDG_RETURN_IF_ERROR(disk->Append(probe_path, "k"));
              return disk->ReadAll(probe_path).status();
            })
            .Supervised(supervision)
            .RegisterWith(*instance->driver);
    if (!registered.ok()) {
      return registered;
    }
    WDG_RETURN_IF_ERROR(instance->driver->Start());  // subscribe handshake
    current_ = std::move(instance);
    return Status::Ok();
  }

  void RespawnLoop() {
    while (!stop_.Requested()) {
      wake_.WaitFor(Ms(2));
      const bool reboot = reboot_requested_.exchange(false, std::memory_order_acq_rel);
      const bool restart = restart_requested_.exchange(false, std::memory_order_acq_rel);
      if (!reboot && !restart) {
        continue;
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (current_) {
        current_->Shutdown();  // ClearAll via release_on_stop unparks the hang
        current_.reset();
      }
      const Status booted = BootLocked();
      if (!booted.ok()) {
        continue;  // the journal already recorded the escalation; trial times out
      }
      if (reboot) {
        // Reboot-equivalent: the "machine" comes back with a clean
        // environment — the fault does not survive it.
        reboot_done_.store(true, std::memory_order_release);
      } else if (options_.persistent_fault &&
                 !reboot_done_.load(std::memory_order_acquire)) {
        // The environment is still bad: the respawned process wedges again,
        // so one trial walks the whole respawn budget.
        injector_.Inject(DiskHang());
      }
    }
  }

  const SupervisedTrialOptions& options_;
  Clock& clock_;
  FaultInjector& injector_;
  SimDisk& disk_;
  SimNet& net_;
  Wdogd& wdogd_;

  std::mutex mu_;
  std::unique_ptr<Instance> current_;
  std::atomic<int> incarnations_{0};
  std::atomic<bool> restart_requested_{false};
  std::atomic<bool> reboot_requested_{false};
  std::atomic<bool> reboot_done_{false};
  StopFlag stop_;
  Event wake_;
  JoiningThread respawner_;
};

}  // namespace

TrialResult RunSupervisedTrial(const SupervisedTrialOptions& options) {
  RealClock& clock = RealClock::Instance();

  // Two fault domains: the supervised process's disk/net, and the
  // supervisor's own journal disk. wdogd is a separate "process" — the hang
  // that takes the main program down must not touch its storage.
  FaultInjector injector(clock, options.seed);
  DiskOptions disk_options;
  disk_options.base_latency = Us(5);
  disk_options.per_kb_latency = 0;
  SimDisk disk(clock, injector, disk_options);
  NetOptions net_options;
  net_options.base_latency = Us(20);
  SimNet net(clock, injector, net_options, options.seed);

  FaultInjector supervisor_injector(clock, options.seed + 1);
  SimDisk journal_disk(clock, supervisor_injector, disk_options);

  TrialResult result;
  result.scenario = StrFormat("supervised-disk-hang-%s", SystemName(options.system));

  WdogdOptions wdogd_options;
  wdogd_options.policy = options.policy;
  wdogd_options.journal_disk = &journal_disk;
  Wdogd wdogd(clock, wdogd_options);

  DetectorOutcome& outcome = result.outcomes[kDetSupervisor];
  outcome.enabled = true;

  if (!wdogd.Start().ok()) {
    return result;
  }
  TimeNs t_inject = 0;
  {
    SupervisedProcess process(options, clock, injector, disk, net, wdogd);
    if (!process.Boot().ok()) {
      (void)wdogd.Stop();
      return result;
    }

    clock.SleepFor(options.warmup);
    t_inject = clock.NowNs();
    injector.Inject(DiskHang());

    // Observe until the ladder has been fully walked (reboot + the post-
    // reboot incarnation healthy) or the budget runs out.
    const TimeNs deadline = clock.NowNs() + options.observe;
    while (clock.NowNs() < deadline) {
      if (process.reboot_done() || (!options.persistent_fault && wdogd.restart_count() > 0)) {
        break;
      }
      clock.SleepFor(Ms(5));
    }
    // Let the post-escalation incarnation kick a few times before teardown.
    clock.SleepFor(options.kick_interval * 3);

    injector.ClearAll();
  }
  (void)wdogd.Stop();

  result.supervisor_warns = wdogd.warn_count();
  result.supervisor_restarts = wdogd.restart_count();
  result.supervisor_reboots = wdogd.reboot_count();
  result.supervisor_escalated = wdogd.restart_count() + wdogd.reboot_count() > 0;
  // The reset-cause journal is the trial's record: the causes in ladder
  // order, and the first escalation after the injection for the latency.
  if (auto journal = wdogd.ReadJournal(); journal.ok()) {
    for (const ResetRecord& record : *journal) {
      result.reset_causes.push_back(ResetCauseName(record.cause));
    }
    const auto first = std::find_if(journal->begin(), journal->end(),
                                    [&](const ResetRecord& r) { return r.at >= t_inject; });
    if (first != journal->end()) {
      result.supervisor_detection_latency = first->at - t_inject;
    }
  }
  outcome.detected = result.supervisor_escalated;
  outcome.latency = result.supervisor_detection_latency;
  if (outcome.detected) {
    outcome.localization = LocalizationLevel::kProcess;  // a supervisor sees processes
    outcome.detail = StrFormat("wdogd ladder: %d warn(s), %d restart(s), %d reboot(s)",
                               static_cast<int>(result.supervisor_warns),
                               static_cast<int>(result.supervisor_restarts),
                               static_cast<int>(result.supervisor_reboots));
  }
  return result;
}

}  // namespace wdg
