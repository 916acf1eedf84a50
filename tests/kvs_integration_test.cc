// Integration tests: a full KvsNode over SimNet/SimDisk, plus the
// AutoWatchdog-generated mimic watchdog running against it under injected
// gray failures.
#include <gtest/gtest.h>

#include <memory>

#include "src/autowd/autowatchdog.h"
#include "src/common/strings.h"
#include "src/kvs/client.h"
#include "src/kvs/ir_model.h"
#include "src/kvs/server.h"

namespace kvs {
namespace {

class KvsNodeTest : public ::testing::Test {
 protected:
  KvsNodeTest()
      : injector_(clock_), disk_(clock_, injector_, FastDisk()),
        net_(clock_, injector_, FastNet()) {}

  ~KvsNodeTest() override {
    injector_.ClearAll();
    if (node_) {
      node_->Stop();
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

  KvsOptions LeaderOptions() {
    KvsOptions options;
    options.node_id = "kvs1";
    options.flush_threshold_bytes = 256;
    options.flush_poll = wdg::Ms(10);
    options.compaction_max_tables = 3;
    options.compaction_poll = wdg::Ms(15);
    return options;
  }

  void StartNode(KvsOptions options) {
    node_ = std::make_unique<KvsNode>(clock_, disk_, net_, std::move(options));
    ASSERT_TRUE(node_->Start().ok());
  }

  wdg::RealClock& clock_ = wdg::RealClock::Instance();
  wdg::FaultInjector injector_;
  wdg::SimDisk disk_;
  wdg::SimNet net_;
  std::unique_ptr<KvsNode> node_;
};

TEST_F(KvsNodeTest, ClientSetGetDelRoundtrip) {
  StartNode(LeaderOptions());
  KvsClient client(net_, "c1", "kvs1");
  ASSERT_TRUE(client.Set("user:1", "alice").ok());
  const auto value = client.Get("user:1");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "alice");
  ASSERT_TRUE(client.Append("user:1", "+smith").ok());
  EXPECT_EQ(*client.Get("user:1"), "alice+smith");
  ASSERT_TRUE(client.Del("user:1").ok());
  EXPECT_EQ(client.Get("user:1").status().code(), wdg::StatusCode::kNotFound);
}

TEST_F(KvsNodeTest, GetMissingKeyIsNotFound) {
  StartNode(LeaderOptions());
  KvsClient client(net_, "c1", "kvs1");
  EXPECT_EQ(client.Get("ghost").status().code(), wdg::StatusCode::kNotFound);
}

TEST_F(KvsNodeTest, WritesSurviveFlushAndCompaction) {
  StartNode(LeaderOptions());
  KvsClient client(net_, "c1", "kvs1");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        client.Set(wdg::StrFormat("key%02d", i), std::string(64, 'a' + (i % 26))).ok());
  }
  // Let flushes and compactions churn.
  clock_.SleepFor(wdg::Ms(300));
  EXPECT_GE(node_->flusher().flush_count(), 1);
  for (int i = 0; i < 40; ++i) {
    const auto value = client.Get(wdg::StrFormat("key%02d", i));
    ASSERT_TRUE(value.ok()) << "key" << i << ": " << value.status().ToString();
    EXPECT_EQ(*value, std::string(64, 'a' + (i % 26)));
  }
}

TEST_F(KvsNodeTest, RecordSeparatorInValueSurvivesFlush) {
  KvsOptions options = LeaderOptions();
  options.flush_threshold_bytes = 1 << 20;  // flush only when forced below
  StartNode(std::move(options));
  KvsClient client(net_, "c1", "kvs1");
  const std::string odd = std::string("x") + '\x1e' + "y";
  ASSERT_TRUE(client.Set("a", odd).ok());
  ASSERT_TRUE(client.Set("b", "plain").ok());
  ASSERT_TRUE(node_->flusher().FlushOnce(/*force=*/true).ok());
  ASSERT_EQ(node_->memtable().ApproximateBytes(), 0);  // both gets read the table
  const auto a = client.Get("a");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(*a, odd);
  const auto b = client.Get("b");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(*b, "plain");
}

TEST_F(KvsNodeTest, RecoveryReplaysWal) {
  StartNode(LeaderOptions());
  {
    KvsClient client(net_, "c1", "kvs1");
    ASSERT_TRUE(client.Set("durable", "yes").ok());
  }
  node_->Stop();  // "crash" (memtable content lives only in WAL)
  node_.reset();

  StartNode(LeaderOptions());  // same disk → WAL replay
  KvsClient client(net_, "c2", "kvs1");
  const auto value = client.Get("durable");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "yes");
}

TEST_F(KvsNodeTest, ReplicationReachesFollower) {
  KvsOptions follower_options;
  follower_options.node_id = "kvs2";
  auto follower = std::make_unique<KvsNode>(clock_, disk_, net_, follower_options);
  ASSERT_TRUE(follower->Start().ok());

  KvsOptions leader_options = LeaderOptions();
  leader_options.followers = {"kvs2"};
  StartNode(leader_options);

  KvsClient client(net_, "c1", "kvs1");
  ASSERT_TRUE(client.Set("replicated", "data").ok());

  KvsClient follower_client(net_, "c2", "kvs2");
  bool seen = false;
  for (int i = 0; i < 100 && !seen; ++i) {
    clock_.SleepFor(wdg::Ms(10));
    seen = follower_client.Get("replicated").ok();
  }
  EXPECT_TRUE(seen);
  node_->Stop();
  follower->Stop();
}

TEST_F(KvsNodeTest, HeartbeatsFlowToMonitor) {
  wdg::Endpoint* monitor = net_.CreateEndpoint("monitor");
  KvsOptions options = LeaderOptions();
  options.heartbeat_target = "monitor";
  options.heartbeat_interval = wdg::Ms(10);
  StartNode(options);
  int beats = 0;
  for (int i = 0; i < 20 && beats < 3; ++i) {
    if (monitor->Recv(wdg::Ms(20)).has_value()) {
      ++beats;
    }
  }
  EXPECT_GE(beats, 3);
}

TEST_F(KvsNodeTest, InMemoryModeNeverFlushes) {
  KvsOptions options = LeaderOptions();
  options.in_memory = true;
  StartNode(options);
  KvsClient client(net_, "c1", "kvs1");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Set(wdg::StrFormat("k%d", i), std::string(100, 'x')).ok());
  }
  clock_.SleepFor(wdg::Ms(100));
  EXPECT_EQ(node_->flusher().flush_count(), 0);
  EXPECT_TRUE(node_->index().Tables().empty());
  EXPECT_EQ(*client.Get("k0"), std::string(100, 'x'));
}

// ------------------------------------------------------ generated watchdog

class KvsWatchdogTest : public KvsNodeTest {
 protected:
  void StartWatchedNode(KvsOptions options) {
    StartNode(std::move(options));
    RegisterOpExecutors(registry_, *node_);

    wdg::WatchdogDriver::Options driver_options;
    driver_options.release_on_stop = [this] { injector_.ClearAll(); };
    driver_ = std::make_unique<wdg::WatchdogDriver>(clock_, driver_options);

    awd::GenerationOptions gen;
    gen.checker.interval = wdg::Ms(20);
    gen.checker.timeout = wdg::Ms(250);
    report_ = awd::Generate(DescribeIr(node_->options()), node_->hooks(), registry_, *driver_,
                            gen);
    driver_->Start();
  }

  ~KvsWatchdogTest() override {
    injector_.ClearAll();
    if (driver_) {
      driver_->Stop();
    }
  }

  awd::OpExecutorRegistry registry_;
  std::unique_ptr<wdg::WatchdogDriver> driver_;
  awd::GenerationReport report_;
};

TEST_F(KvsWatchdogTest, GeneratesTensOfOpsAcrossComponents) {
  KvsOptions options = LeaderOptions();
  options.followers = {"kvs2"};  // replication region needs a follower to monitor
  StartWatchedNode(options);
  // Five long-running regions → five generated checkers.
  EXPECT_EQ(report_.program.functions.size(), 5u);
  EXPECT_GE(report_.program.stats.ops_retained, 10);
  EXPECT_EQ(report_.ops_without_executor, 0);  // every reduced op is mimickable
  EXPECT_GE(report_.hooks_armed, 5);
}

TEST_F(KvsWatchdogTest, SilentOnHealthySystem) {
  StartWatchedNode(LeaderOptions());
  KvsClient client(net_, "c1", "kvs1");
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client.Set(wdg::StrFormat("k%02d", i), std::string(64, 'v')).ok());
  }
  clock_.SleepFor(wdg::Ms(400));
  for (const auto& failure : driver_->Failures()) {
    ADD_FAILURE() << "unexpected alarm: " << failure.ToString();
  }
}

TEST_F(KvsWatchdogTest, DetectsDiskWriteFaultWithPinpoint) {
  StartWatchedNode(LeaderOptions());
  KvsClient client(net_, "c1", "kvs1");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Set(wdg::StrFormat("k%02d", i), std::string(64, 'v')).ok());
  }
  clock_.SleepFor(wdg::Ms(100));  // contexts become ready

  wdg::FaultSpec fault;
  fault.id = "bad_disk";
  fault.site_pattern = "disk.write";
  fault.kind = wdg::FaultKind::kError;
  injector_.Inject(fault);

  ASSERT_TRUE(driver_->WaitForFailure(wdg::Sec(3), [](const wdg::FailureSignature& sig) {
    return sig.location.op_site == "disk.write";
  }));
  injector_.ClearAll();
}

TEST_F(KvsWatchdogTest, DetectsCorruptedWalAppendAsSafety) {
  // The append succeeds and grows the file by the record's size; only the
  // bytes are wrong, so the mimic has to read the appended range back.
  StartWatchedNode(LeaderOptions());
  KvsClient client(net_, "c1", "kvs1");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Set(wdg::StrFormat("k%02d", i), std::string(64, 'v')).ok());
  }
  clock_.SleepFor(wdg::Ms(100));  // contexts become ready

  wdg::FaultSpec fault;
  fault.id = "bit_rot";
  fault.site_pattern = "disk.append";
  fault.kind = wdg::FaultKind::kCorruption;
  injector_.Inject(fault);

  EXPECT_TRUE(driver_->WaitForFailure(wdg::Sec(3), [](const wdg::FailureSignature& sig) {
    return sig.type == wdg::FailureType::kSafetyViolation &&
           sig.location.function == "WalAppend" && sig.location.op_site == "disk.append";
  }));
  injector_.ClearAll();
}

TEST_F(KvsWatchdogTest, DetectsHungReplicationLinkAsLiveness) {
  KvsOptions follower_options;
  follower_options.node_id = "kvs2";
  auto follower = std::make_unique<KvsNode>(clock_, disk_, net_, follower_options);
  ASSERT_TRUE(follower->Start().ok());

  KvsOptions leader = LeaderOptions();
  leader.followers = {"kvs2"};
  StartWatchedNode(leader);

  KvsClient client(net_, "c1", "kvs1");
  ASSERT_TRUE(client.Set("seed", "value").ok());  // makes replication ctx ready
  clock_.SleepFor(wdg::Ms(100));

  wdg::FaultSpec hang;
  hang.id = "link";
  hang.site_pattern = "net.send.kvs2";
  hang.kind = wdg::FaultKind::kHang;
  injector_.Inject(hang);
  ASSERT_TRUE(client.Set("after", "fault").ok());  // client path still works!

  ASSERT_TRUE(driver_->WaitForFailure(wdg::Sec(3), [](const wdg::FailureSignature& sig) {
    return sig.type == wdg::FailureType::kLivenessTimeout &&
           sig.location.op_site == "net.send.kvs2";
  }));
  const auto failures = driver_->Failures();
  bool pinned = false;
  for (const auto& sig : failures) {
    if (sig.location.op_site == "net.send.kvs2") {
      pinned = true;
      EXPECT_EQ(sig.location.function, "ReplicateBatch");
      EXPECT_EQ(sig.location.component, "kvs.replication");
    }
  }
  EXPECT_TRUE(pinned);
  injector_.ClearAll();
  driver_->Stop();
  follower->Stop();
}

TEST_F(KvsWatchdogTest, DetectsPartitionCorruptionAsSafety) {
  StartWatchedNode(LeaderOptions());
  KvsClient client(net_, "c1", "kvs1");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Set(wdg::StrFormat("k%02d", i), std::string(64, 'v')).ok());
  }
  // Wait for at least one flush so a partition exists.
  for (int i = 0; i < 100 && node_->partitions().Partitions().empty(); ++i) {
    clock_.SleepFor(wdg::Ms(10));
  }
  const auto partitions = node_->partitions().Partitions();
  ASSERT_FALSE(partitions.empty());
  disk_.MarkBadRange(partitions.front().path, 4, 8);  // media goes bad

  ASSERT_TRUE(driver_->WaitForFailure(wdg::Sec(3), [](const wdg::FailureSignature& sig) {
    return sig.type == wdg::FailureType::kSafetyViolation;
  }));
}

TEST_F(KvsWatchdogTest, InMemoryConfigKeepsFlushCheckerDormant) {
  // The paper's spurious-report example: in-memory kvs never flushes, so the
  // flush checker's context never becomes ready and it must stay silent.
  KvsOptions options = LeaderOptions();
  options.in_memory = true;
  StartWatchedNode(options);
  KvsClient client(net_, "c1", "kvs1");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Set(wdg::StrFormat("k%d", i), std::string(64, 'x')).ok());
  }
  clock_.SleepFor(wdg::Ms(300));
  const auto stats = driver_->StatsFor("FlushLoop_reduced");
  EXPECT_GT(stats.context_not_ready, 0);
  EXPECT_EQ(stats.fails, 0);
  for (const auto& failure : driver_->Failures()) {
    EXPECT_NE(failure.checker_name, "FlushLoop_reduced")
        << "spurious flush alarm in in-memory mode";
  }
}

TEST_F(KvsWatchdogTest, AllPlannedHooksFireUnderRepresentativeWorkload) {
  // Drift guard: if the IR model names a hook site the code never fires, the
  // checkers it feeds would silently stay dormant forever. Exercise every
  // code path and assert full hook coverage.
  KvsOptions options = LeaderOptions();
  options.followers = {"kvs2"};
  KvsOptions follower_options;
  follower_options.node_id = "kvs2";
  auto follower = std::make_unique<KvsNode>(clock_, disk_, net_, follower_options);
  ASSERT_TRUE(follower->Start().ok());
  StartWatchedNode(options);

  KvsClient client(net_, "c1", "kvs1");
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          client.Set(wdg::StrFormat("w%02d-k%d", wave, i), std::string(64, 'v')).ok());
    }
    (void)client.Get("w00-k0");
    clock_.SleepFor(wdg::Ms(20));
    if (awd::UnfiredHooks(report_.plan, node_->hooks()).empty()) {
      break;  // full coverage reached early
    }
  }
  const auto unfired = awd::UnfiredHooks(report_.plan, node_->hooks());
  EXPECT_TRUE(unfired.empty()) << "IR/code drift: hook '" << (unfired.empty() ? "" : unfired[0])
                               << "' planned but never fired";
  driver_->Stop();
  follower->Stop();
}

}  // namespace
}  // namespace kvs
