#include "src/eval/armed_system.h"

#include "src/detectors/signal_suite.h"
#include "src/kvs/ctx_keys.h"
#include "src/kvs/ir_model.h"
#include "src/minihdfs/ir_model.h"
#include "src/minizk/ir_model.h"

namespace wdg {

const char* SystemName(System system) {
  switch (system) {
    case System::kKvs: return "kvs";
    case System::kMinizk: return "minizk";
    case System::kMinihdfs: return "minihdfs";
  }
  return "unknown";
}

ArmedSystem::ArmedSystem(System system, ArmedSystemOptions options, uint64_t seed)
    : clock_(RealClock::Instance()),
      injector_(clock_, seed),
      disk_(clock_, injector_, options.disk),
      net_(clock_, injector_, options.net, seed) {
  switch (system) {
    case System::kKvs: {
      kvs::KvsOptions follower_options;
      follower_options.node_id = kKvsFollowerId;
      kvs_follower_ = std::make_unique<kvs::KvsNode>(clock_, disk_, net_, follower_options);
      kvs_ = std::make_unique<kvs::KvsNode>(clock_, disk_, net_, std::move(options.kvs));
      hooks_ = &kvs_->hooks();
      boot_ = [this] {
        WDG_RETURN_IF_ERROR(kvs_follower_->Start());
        return kvs_->Start();
      };
      stop_nodes_ = [this] {
        kvs_->Stop();
        kvs_follower_->Stop();
      };
      register_executors_ = [this] {
        kvs::RegisterOpExecutors(registry_, *kvs_);
        return kvs::DescribeIr(kvs_->options());
      };
      break;
    }
    case System::kMinizk:
      zk_follower_ = std::make_unique<minizk::ZkFollower>(clock_, net_, kZkFollowerId);
      zk_ = std::make_unique<minizk::ZkNode>(clock_, disk_, net_, std::move(options.zk));
      hooks_ = &zk_->hooks();
      boot_ = [this] {
        zk_follower_->Start();
        return zk_->Start();
      };
      stop_nodes_ = [this] {
        zk_->Stop();
        zk_follower_->Stop();
      };
      register_executors_ = [this] {
        minizk::RegisterOpExecutors(registry_, *zk_);
        return minizk::DescribeIr(zk_->options());
      };
      break;
    case System::kMinihdfs:
      namenode_ = std::make_unique<minihdfs::NameNode>(clock_, net_, options.hdfs.namenode_id);
      hdfs_ = std::make_unique<minihdfs::DataNode>(clock_, disk_, net_, std::move(options.hdfs));
      hooks_ = &hdfs_->hooks();
      boot_ = [this] {
        namenode_->Start();
        return hdfs_->Start();
      };
      stop_nodes_ = [this] {
        hdfs_->Stop();
        namenode_->Stop();
      };
      register_executors_ = [this] {
        minihdfs::RegisterOpExecutors(registry_, *hdfs_);
        return minihdfs::DescribeIr(hdfs_->options());
      };
      break;
  }
  options.driver.release_on_stop = [this] { injector_.ClearAll(); };
  driver_ = std::make_unique<WatchdogDriver>(clock_, std::move(options.driver));
}

void ArmedSystem::Stop() {
  // A hang fault parks whichever thread reaches its site, checker or node:
  // clear it first, or the joins below wait forever.
  injector_.ClearAll();
  if (driver_->running()) {
    (void)driver_->Stop();
  }
  stop_nodes_();
}

awd::GenerationReport ArmedSystem::Arm(const awd::GenerationOptions& gen) {
  return awd::Generate(register_executors_(), *hooks_, registry_, *driver_, gen);
}

Status ArmedSystem::AttachSignalSuite() {
  if (kvs_ == nullptr) {
    return UnimplementedError("the resource signal suite is wired for kvs only");
  }
  // Arm the leader's resource hook sites into one shared context; the suite
  // subscribes per-key, so e.g. a quiet queue-depth key skips its checker
  // even while the beat key keeps advancing.
  kvs_->hooks().Arm("ResourceSample:1", "res_ctx");
  kvs_->hooks().Arm("ResourceBeat:1", "res_ctx");
  const SignalSuiteKeys keys{kvs::keys::ResOpenHandles(), kvs::keys::ResRssBytes(),
                             kvs::keys::ResQueueDepth(),  kvs::keys::ResDiskLatNs(),
                             kvs::keys::ResLiveThreads(), kvs::keys::ResLastBeatNs()};
  SignalSuiteOptions options;
  options.name_prefix = "kvs_res_";
  options.fd_component = "kvs.compaction";  // table-dir file leaks
  options.rss_component = "kvs.flusher";    // memtable never drains
  options.queue_component = "kvs.listener";
  options.disk_component = "kvs.wal";
  options.threads_component = "kvs";
  options.beat_component = "kvs.listener";
  options.threads_min_live = 5;  // listener/maint/flush/compact/repl
  // Normal compaction churn can grow the table dir by +5 files monotonically
  // (trough after a merge -> next merge's inputs plus its output) before the
  // deletes land; 8 clears that sawtooth while a real delete-path leak blows
  // through it within a few flush cycles.
  options.fd_min_growth = 8;
  return RegisterSignalSuite(*driver_, clock_, kvs_->hooks().Context("res_ctx"), keys,
                             options);
}

const FusionColumns& ArmedSystem::AttachFusion() {
  fusion_.reset(new FusionColumns{FusionDetector({.family_mask = kFamilyAll}),
                                  FusionDetector({.family_mask = kFamilyProbe}),
                                  FusionDetector({.family_mask = kFamilySignal}),
                                  FusionDetector({.family_mask = kFamilyMimic})});
  for (FusionDetector* detector : {&fusion_->fused, &fusion_->probe_only,
                                   &fusion_->signal_only, &fusion_->mimic_only}) {
    driver_->AddListener(detector);
  }
  return *fusion_;
}

}  // namespace wdg
