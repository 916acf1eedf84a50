// ArmedSystem: kvs, minizk or minihdfs on a simulated substrate, armed with
// its AutoWatchdog-generated watchdog (paper §4.2). Boot() starts the peer
// and the leader on the harness's FaultInjector, SimDisk and SimNet; Arm()
// registers the leader's op executors and generates its checkers into
// driver(); Stop() (or the destructor) clears every fault, stops the driver,
// then stops the nodes. A run may boot and never arm, or touch contexts,
// checkers, listeners or the validation probe before Start().
//
// The peer is kvs follower "kvs2", ZkFollower "zk-f1" or the NameNode at
// hdfs.namenode_id. It always starts; the leader's options decide whether
// the leader talks to it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/autowd/autowatchdog.h"
#include "src/detectors/fusion.h"
#include "src/fault/fault_injector.h"
#include "src/kvs/server.h"
#include "src/minihdfs/datanode.h"
#include "src/minizk/server.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_net.h"
#include "src/watchdog/driver.h"

namespace wdg {

enum class System { kKvs, kMinizk, kMinihdfs };

const char* SystemName(System system);

inline constexpr char kKvsFollowerId[] = "kvs2";
inline constexpr char kZkFollowerId[] = "zk-f1";

struct ArmedSystemOptions {
  DiskOptions disk;
  NetOptions net;
  // The leader of each system; only the one for the chosen system is used.
  // The kvs and minizk leaders replicate to the harness's peer by default.
  kvs::KvsOptions kvs = [] {
    kvs::KvsOptions leader;
    leader.followers = {kKvsFollowerId};
    return leader;
  }();
  minizk::ZkOptions zk = [] {
    minizk::ZkOptions leader;
    leader.followers = {kZkFollowerId};
    return leader;
  }();
  minihdfs::DataNodeOptions hdfs;
  // release_on_stop is overwritten: it clears the harness's injector.
  WatchdogDriver::Options driver;
};

// Verdict fusion over the driver's listener stream: the fused detector and
// three single-family baselines, differing only in their family mask.
struct FusionColumns {
  FusionDetector fused;
  FusionDetector probe_only;
  FusionDetector signal_only;
  FusionDetector mimic_only;
};

class ArmedSystem {
 public:
  // `seed` seeds the fault injector and the network's drop RNG.
  explicit ArmedSystem(System system, ArmedSystemOptions options = {}, uint64_t seed = 42);
  ~ArmedSystem() { Stop(); }

  ArmedSystem(const ArmedSystem&) = delete;
  ArmedSystem& operator=(const ArmedSystem&) = delete;

  // Starts the peer, then the leader.
  Status Boot() { return boot_(); }
  // Registers the leader's op executors and generates its watchdog into
  // driver(). Call once, after Boot() and before Start().
  awd::GenerationReport Arm(const awd::GenerationOptions& gen);
  Status Start() { return driver_->Start(); }
  // The teardown, in order; idempotent. A caller whose checkers capture
  // objects declared after this one calls it before they go.
  void Stop();

  // kvs only: arms the leader's resource hook sites into one context and
  // registers the resource signal-checker suite (src/detectors/signal_suite.h).
  Status AttachSignalSuite();
  // Adds the four fusion detectors as driver listeners. They live as long
  // as this object and outlive the driver's last delivery.
  const FusionColumns& AttachFusion();

  Clock& clock() { return clock_; }
  FaultInjector& injector() { return injector_; }
  SimNet& net() { return net_; }
  WatchdogDriver& driver() { return *driver_; }
  // The leader's hooks, whichever the system.
  HookSet& hooks() { return *hooks_; }
  // The leader of the chosen system (null for the others), and the HDFS
  // NameNode.
  kvs::KvsNode* kvs() { return kvs_.get(); }
  minizk::ZkNode* zk() { return zk_.get(); }
  minihdfs::DataNode* hdfs() { return hdfs_.get(); }
  minihdfs::NameNode* namenode() { return namenode_.get(); }

 private:
  Clock& clock_;
  // Declaration order is teardown order, reversed: the driver goes first,
  // then the fusion listeners it delivers to, the registry its checkers
  // call, the nodes those executors touch, and last the substrate.
  FaultInjector injector_;
  SimDisk disk_;
  SimNet net_;
  std::unique_ptr<kvs::KvsNode> kvs_follower_;
  std::unique_ptr<kvs::KvsNode> kvs_;
  std::unique_ptr<minizk::ZkFollower> zk_follower_;
  std::unique_ptr<minizk::ZkNode> zk_;
  std::unique_ptr<minihdfs::NameNode> namenode_;
  std::unique_ptr<minihdfs::DataNode> hdfs_;
  // Per-system wiring, set once by the constructor.
  HookSet* hooks_ = nullptr;
  std::function<Status()> boot_;
  std::function<void()> stop_nodes_;
  std::function<awd::Module()> register_executors_;  // returns the leader's IR
  awd::OpExecutorRegistry registry_;
  std::unique_ptr<FusionColumns> fusion_;
  std::unique_ptr<WatchdogDriver> driver_;
};

}  // namespace wdg
