// Tests for minizk: DataTree, snapshot serialization, the write pipeline,
// and the full ZOOKEEPER-2201 gray-failure reproduction with the generated
// watchdog racing the baseline signals (§4.2 of the paper).
#include <gtest/gtest.h>

#include <memory>

#include "src/autowd/autowatchdog.h"
#include "src/common/strings.h"
#include "src/minizk/ctx_keys.h"
#include "src/minizk/client.h"
#include "src/minizk/ir_model.h"
#include "src/minizk/server.h"

namespace minizk {
namespace {

TEST(DataTreeTest, CreateSetGetDelete) {
  DataTree tree(wdg::RealClock::Instance());
  ASSERT_TRUE(tree.Create("/app", "root").ok());
  EXPECT_EQ(tree.Create("/app", "dup").code(), wdg::StatusCode::kAlreadyExists);
  ASSERT_TRUE(tree.SetData("/app", "v2").ok());
  const auto node = tree.GetData("/app");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node->data, "v2");
  EXPECT_EQ(node->version, 1);
  ASSERT_TRUE(tree.Delete("/app").ok());
  EXPECT_EQ(tree.GetData("/app").status().code(), wdg::StatusCode::kNotFound);
  EXPECT_EQ(tree.SetData("/ghost", "x").code(), wdg::StatusCode::kNotFound);
}

TEST(DataTreeTest, ChildrenAreDirectOnly) {
  DataTree tree(wdg::RealClock::Instance());
  ASSERT_TRUE(tree.Create("/a", "").ok());
  ASSERT_TRUE(tree.Create("/a/b", "").ok());
  ASSERT_TRUE(tree.Create("/a/c", "").ok());
  ASSERT_TRUE(tree.Create("/a/b/d", "").ok());
  const auto children = tree.Children("/a");
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0], "/a/b");
  EXPECT_EQ(children[1], "/a/c");
}

class ZkDiskFixture : public ::testing::Test {
 protected:
  ZkDiskFixture() : injector_(clock_), disk_(clock_, injector_, FastDisk()) {}
  static wdg::DiskOptions FastDisk() {
    wdg::DiskOptions options;
    options.base_latency = 0;
    options.per_kb_latency = 0;
    return options;
  }
  wdg::RealClock& clock_ = wdg::RealClock::Instance();
  wdg::FaultInjector injector_;
  wdg::SimDisk disk_;
};

TEST_F(ZkDiskFixture, SnapshotSerializesAllNodesAndFiresHook) {
  DataTree tree(clock_);
  wdg::HookSet hooks;
  hooks.Arm("serializeNode:2", "snapshot_ctx");
  ASSERT_TRUE(tree.Create("/a", "1").ok());
  ASSERT_TRUE(tree.Create("/b", "2").ok());
  ASSERT_TRUE(tree.SerializeSnapshot(disk_, "/zk/snap", hooks).ok());
  EXPECT_EQ(tree.serialized_count(), 2);
  const auto snap = disk_.ReadAll("/zk/snap");
  ASSERT_TRUE(snap.ok());
  EXPECT_NE(snap->find("/a=1"), std::string::npos);
  EXPECT_NE(snap->find("/b=2"), std::string::npos);
  // The Figure 2 hook fired between the scount bump and writeRecord.
  wdg::CheckContext* ctx = hooks.Context("snapshot_ctx");
  EXPECT_TRUE(ctx->ready());
  EXPECT_EQ(*ctx->Get(minizk::keys::Node()), "/b");  // last node serialized
  EXPECT_EQ(*ctx->Get(minizk::keys::Oa()), "/zk/snap");
}

TEST_F(ZkDiskFixture, SnapshotOverwritesPrevious) {
  DataTree tree(clock_);
  wdg::HookSet hooks;
  ASSERT_TRUE(tree.Create("/a", "1").ok());
  ASSERT_TRUE(tree.SerializeSnapshot(disk_, "/zk/snap", hooks).ok());
  ASSERT_TRUE(tree.SetData("/a", "2").ok());
  ASSERT_TRUE(tree.SerializeSnapshot(disk_, "/zk/snap", hooks).ok());
  const auto snap = disk_.ReadAll("/zk/snap");
  ASSERT_TRUE(snap.ok());
  EXPECT_NE(snap->find("/a=2"), std::string::npos);
  EXPECT_EQ(snap->find("/a=1"), std::string::npos);
}

class ZkClusterTest : public ::testing::Test {
 protected:
  ZkClusterTest()
      : injector_(clock_), disk_(clock_, injector_, FastDisk()),
        net_(clock_, injector_, FastNet()) {}

  ~ZkClusterTest() override {
    injector_.ClearAll();
    if (driver_) {
      driver_->Stop();
    }
    if (leader_) {
      leader_->Stop();
    }
    if (follower_) {
      follower_->Stop();
    }
  }

  static wdg::DiskOptions FastDisk() {
    wdg::DiskOptions options;
    options.base_latency = wdg::Us(5);
    options.per_kb_latency = 0;
    return options;
  }
  static wdg::NetOptions FastNet() {
    wdg::NetOptions options;
    options.base_latency = wdg::Us(20);
    return options;
  }

  void StartCluster(bool with_watchdog) {
    follower_ = std::make_unique<ZkFollower>(clock_, net_, "zk-f1");
    follower_->Start();

    ZkOptions options;
    options.node_id = "zk-leader";
    options.followers = {"zk-f1"};
    options.snapshot_every_n = 4;
    options.ping_interval = wdg::Ms(15);
    leader_ = std::make_unique<ZkNode>(clock_, disk_, net_, options);
    ASSERT_TRUE(leader_->Start().ok());

    if (with_watchdog) {
      RegisterOpExecutors(registry_, *leader_);
      wdg::WatchdogDriver::Options driver_options;
      driver_options.release_on_stop = [this] { injector_.ClearAll(); };
      driver_ = std::make_unique<wdg::WatchdogDriver>(clock_, driver_options);
      awd::GenerationOptions gen;
      gen.checker.interval = wdg::Ms(20);
      gen.checker.timeout = wdg::Ms(250);
      report_ = awd::Generate(DescribeIr(leader_->options()), leader_->hooks(), registry_,
                              *driver_, gen);
      driver_->Start();
    }
  }

  wdg::RealClock& clock_ = wdg::RealClock::Instance();
  wdg::FaultInjector injector_;
  wdg::SimDisk disk_;
  wdg::SimNet net_;
  std::unique_ptr<ZkFollower> follower_;
  std::unique_ptr<ZkNode> leader_;
  awd::OpExecutorRegistry registry_;
  std::unique_ptr<wdg::WatchdogDriver> driver_;
  awd::GenerationReport report_;
};

TEST_F(ZkClusterTest, WritesCommitAndReadBack) {
  StartCluster(/*with_watchdog=*/false);
  ZkClient client(net_, "zc1", "zk-leader", wdg::Sec(2));
  ASSERT_TRUE(client.Create("/cfg", "v1").ok());
  ASSERT_TRUE(client.Set("/cfg", "v2").ok());
  const auto value = client.Get("/cfg");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "v2");
  EXPECT_GE(leader_->processor().committed(), 2);
  EXPECT_GE(follower_->syncs_acked(), 2);
}

TEST_F(ZkClusterTest, FollowerReplicaConvergesViaSync) {
  StartCluster(/*with_watchdog=*/false);
  ZkClient client(net_, "zc1", "zk-leader", wdg::Sec(2));
  ASSERT_TRUE(client.Create("/cfg", "v1").ok());
  ASSERT_TRUE(client.Set("/cfg", "v2").ok());
  ASSERT_TRUE(client.Create("/gone", "x").ok());
  ASSERT_TRUE(client.Delete("/gone").ok());
  // Syncs are applied before the leader acks the write, so the follower's
  // replica is already converged.
  const auto replica = follower_->tree().GetData("/cfg");
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(replica->data, "v2");
  EXPECT_EQ(follower_->tree().GetData("/gone").status().code(),
            wdg::StatusCode::kNotFound);
}

TEST_F(ZkClusterTest, ChildrenListedOverTheWire) {
  StartCluster(/*with_watchdog=*/false);
  ZkClient client(net_, "zc1", "zk-leader", wdg::Sec(2));
  ASSERT_TRUE(client.Create("/app", "").ok());
  ASSERT_TRUE(client.Create("/app/a", "1").ok());
  ASSERT_TRUE(client.Create("/app/b", "2").ok());
  ASSERT_TRUE(client.Create("/app/a/deep", "3").ok());
  const auto children = client.Children("/app");
  ASSERT_TRUE(children.ok());
  ASSERT_EQ(children->size(), 2u);
  EXPECT_EQ((*children)[0], "/app/a");
  EXPECT_EQ((*children)[1], "/app/b");
  const auto empty = client.Children("/app/b");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(ZkClusterTest, SnapshotsHappenEveryN) {
  StartCluster(/*with_watchdog=*/false);
  ZkClient client(net_, "zc1", "zk-leader", wdg::Sec(2));
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(client.Create(wdg::StrFormat("/n%d", i), "data").ok());
  }
  EXPECT_GE(leader_->processor().snapshots_taken(), 2);
  EXPECT_TRUE(disk_.Exists("/zk/zk-leader/snapshot"));
}

TEST_F(ZkClusterTest, AdminCommandsAnswer) {
  StartCluster(/*with_watchdog=*/false);
  ZkClient client(net_, "zc1", "zk-leader", wdg::Sec(1));
  const auto ruok = client.Ruok();
  ASSERT_TRUE(ruok.ok());
  EXPECT_EQ(*ruok, "imok");
  ASSERT_TRUE(client.Create("/x", "1").ok());
  const auto stat = client.Stat();
  ASSERT_TRUE(stat.ok());
  EXPECT_NE(stat->find("nodes=1"), std::string::npos);
}

TEST_F(ZkClusterTest, SessionPingsFlow) {
  StartCluster(/*with_watchdog=*/false);
  clock_.SleepFor(wdg::Ms(150));
  EXPECT_GE(leader_->pings_acked(), 3);
  EXPECT_GE(follower_->pings_acked(), 3);
}

TEST_F(ZkClusterTest, GeneratedWatchdogCoversAllRegions) {
  StartCluster(/*with_watchdog=*/true);
  // ListenerLoop, ProcessorLoop (incl. Figure 2 chain), SessionLoop.
  EXPECT_EQ(report_.program.functions.size(), 3u);
  EXPECT_EQ(report_.ops_without_executor, 0);
  bool snapshot_chain_covered = false;
  for (const auto& fn : report_.program.functions) {
    for (const auto& op : fn.ops) {
      if (op.origin_function == "serializeNode" && op.site == "disk.write") {
        snapshot_chain_covered = true;  // Figure 2's writeRecord survived reduction
      }
    }
  }
  EXPECT_TRUE(snapshot_chain_covered);
}

TEST_F(ZkClusterTest, WatchdogSilentOnHealthyCluster) {
  StartCluster(/*with_watchdog=*/true);
  ZkClient client(net_, "zc1", "zk-leader", wdg::Sec(2));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Create(wdg::StrFormat("/n%d", i), "data").ok());
  }
  clock_.SleepFor(wdg::Ms(400));
  for (const auto& failure : driver_->Failures()) {
    ADD_FAILURE() << "unexpected alarm: " << failure.ToString();
  }
}

TEST_F(ZkClusterTest, CorruptedTxnAppendDetectedAsSafety) {
  StartCluster(/*with_watchdog=*/true);
  ZkClient client(net_, "zc1", "zk-leader", wdg::Sec(2));
  ASSERT_TRUE(client.Create("/app", "v0").ok());  // healthy commit, contexts ready
  clock_.SleepFor(wdg::Ms(50));

  wdg::FaultSpec fault;
  fault.id = "bit_rot";
  fault.site_pattern = "disk.append";
  fault.kind = wdg::FaultKind::kCorruption;
  injector_.Inject(fault);

  EXPECT_TRUE(driver_->WaitForFailure(wdg::Sec(3), [](const wdg::FailureSignature& sig) {
    return sig.type == wdg::FailureType::kSafetyViolation &&
           sig.location.function == "ProcessWrite" && sig.location.op_site == "disk.append";
  }));
  injector_.ClearAll();
}

TEST_F(ZkClusterTest, WatchdogProbesAreNotCountedAsSessionPings) {
  // Isolation (§3.3): the mimicked "net.send.<follower>.hb" must not feed the
  // heartbeat signal the ZK-2201 story shows to be blind.
  StartCluster(/*with_watchdog=*/true);
  clock_.SleepFor(wdg::Ms(300));
  ASSERT_GE(driver_->StatsFor("SessionLoop_reduced").passes, 3);
  const int64_t follower_acked = follower_->pings_acked();
  const int64_t leader_failures =
      leader_->metrics().GetCounter("zk.session.ping_failures")->Value();
  // Every ping the follower counted is one the leader's session loop sent:
  // acked, timed out, or (at most one) still in flight.
  EXPECT_LE(follower_acked,
            leader_->pings_acked() + leader_failures + 1);
}

// The headline reproduction: ZOOKEEPER-2201.
TEST_F(ZkClusterTest, Zk2201GrayFailureDetectedOnlyByWatchdog) {
  StartCluster(/*with_watchdog=*/true);
  ZkClient client(net_, "zc1", "zk-leader", wdg::Ms(300));
  ASSERT_TRUE(client.Create("/app", "v0").ok());  // healthy commit, contexts ready
  clock_.SleepFor(wdg::Ms(50));

  // "A network issue causes a remote sync to block in a critical section."
  // Exact-site hang: only the leader→follower sync link; heartbeats ride
  // "net.send.zk-f1.hb" and stay healthy.
  wdg::FaultSpec hang;
  hang.id = "zk2201";
  hang.site_pattern = "net.send.zk-f1";
  hang.kind = wdg::FaultKind::kHang;
  injector_.Inject(hang);

  // Trigger a write: the processor thread wedges inside the commit lock.
  EXPECT_EQ(client.Set("/app", "v1").code(), wdg::StatusCode::kTimeout);

  // Gray-failure symptoms: writes hang...
  EXPECT_EQ(client.Set("/app", "v2").code(), wdg::StatusCode::kTimeout);
  // ...while reads and the admin command report a healthy leader...
  EXPECT_TRUE(client.Get("/app").ok());
  const auto ruok = client.Ruok();
  ASSERT_TRUE(ruok.ok());
  EXPECT_EQ(*ruok, "imok");
  // ...and session heartbeats keep flowing.
  const int64_t pings_before = leader_->pings_acked();
  clock_.SleepFor(wdg::Ms(100));
  EXPECT_GT(leader_->pings_acked(), pings_before);

  // The generated watchdog detects the stall and pinpoints the write
  // pipeline's critical section / blocked sync call.
  ASSERT_TRUE(driver_->WaitForFailure(wdg::Sec(3), [](const wdg::FailureSignature& sig) {
    return sig.type == wdg::FailureType::kLivenessTimeout &&
           sig.location.function == "ProcessWrite";
  }));
  bool pinned = false;
  for (const auto& sig : driver_->Failures()) {
    if (sig.location.function == "ProcessWrite") {
      pinned = true;
      EXPECT_EQ(sig.location.component, "zk.sync_processor");
      EXPECT_TRUE(sig.location.op_site == "lock.zk.commit" ||
                  sig.location.op_site == "net.send.zk-f1")
          << sig.ToString();
    }
  }
  EXPECT_TRUE(pinned);

  // Cleanup: release the hang before teardown.
  injector_.ClearAll();
}

TEST_F(ZkClusterTest, RecoveryAfterFaultClearsSilences) {
  StartCluster(/*with_watchdog=*/true);
  ZkClient client(net_, "zc1", "zk-leader", wdg::Ms(300));
  ASSERT_TRUE(client.Create("/app", "v0").ok());

  wdg::FaultSpec hang;
  hang.id = "zk2201";
  hang.site_pattern = "net.send.zk-f1";
  hang.kind = wdg::FaultKind::kHang;
  injector_.Inject(hang);
  (void)client.Set("/app", "v1");  // wedge the processor
  ASSERT_TRUE(driver_->WaitForFailure(wdg::Sec(3)));

  injector_.ClearAll();  // "network recovers"
  clock_.SleepFor(wdg::Ms(300));
  // Writes work again.
  ZkClient retry(net_, "zc2", "zk-leader", wdg::Sec(2));
  EXPECT_TRUE(retry.Set("/app", "v3").ok());
}

}  // namespace
}  // namespace minizk
