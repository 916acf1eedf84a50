// Coverage sweep: exercises surfaces the focused suites don't — workload
// generator end-to-end, SimNet healing, multi-follower replication.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/eval/workload.h"
#include "src/kvs/client.h"
#include "src/kvs/server.h"

namespace wdg {
namespace {

TEST(SimNetTest, HealAllRestoresEveryPartition) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  SimNet net(clock, injector);
  net.CreateEndpoint("a");
  net.CreateEndpoint("b");
  net.CreateEndpoint("c");
  net.Partition("a", "b");
  net.Partition("b", "c");
  EXPECT_TRUE(net.IsPartitioned("a", "b"));
  EXPECT_TRUE(net.IsPartitioned("c", "b"));
  net.HealAll();
  EXPECT_FALSE(net.IsPartitioned("a", "b"));
  EXPECT_FALSE(net.IsPartitioned("b", "c"));
}

class KvsSweepFixture : public ::testing::Test {
 protected:
  KvsSweepFixture()
      : injector_(clock_),
        disk_(clock_, injector_, DiskOptions{.base_latency = Us(5), .per_kb_latency = 0}),
        net_(clock_, injector_, NetOptions{.base_latency = Us(20)}) {}

  ~KvsSweepFixture() override { injector_.ClearAll(); }

  RealClock& clock_ = RealClock::Instance();
  FaultInjector injector_;
  SimDisk disk_;
  SimNet net_;
};

TEST_F(KvsSweepFixture, WorkloadGeneratorDrivesANodeEndToEnd) {
  kvs::KvsOptions options;
  options.node_id = "kvs1";
  options.flush_threshold_bytes = 1024;
  options.flush_poll = Ms(10);
  kvs::KvsNode node(clock_, disk_, net_, options);
  ASSERT_TRUE(node.Start().ok());

  WorkloadOptions workload_options;
  workload_options.op_interval = Ms(2);
  workload_options.zipf_s = 1.0;  // hot-key workload
  workload_options.append_fraction = 0.1;
  WorkloadGenerator workload(clock_, net_, "kvs1", workload_options);
  std::atomic<int64_t> outcomes{0};
  workload.set_on_outcome([&](const Status&) { outcomes.fetch_add(1); });
  workload.Start();
  clock_.SleepFor(Ms(400));
  workload.Stop();

  EXPECT_GT(workload.requests(), 50);
  EXPECT_EQ(workload.errors(), 0);
  EXPECT_EQ(outcomes.load(), workload.requests());
  EXPECT_GT(workload.MeanLatencyNs(), 0);
  EXPECT_GE(workload.P99LatencyNs(), workload.MeanLatencyNs());
  node.Stop();
}

TEST_F(KvsSweepFixture, TwoFollowersBothConverge) {
  kvs::KvsOptions f1_options;
  f1_options.node_id = "kvs2";
  kvs::KvsNode f1(clock_, disk_, net_, f1_options);
  ASSERT_TRUE(f1.Start().ok());
  kvs::KvsOptions f2_options;
  f2_options.node_id = "kvs3";
  kvs::KvsNode f2(clock_, disk_, net_, f2_options);
  ASSERT_TRUE(f2.Start().ok());

  kvs::KvsOptions leader_options;
  leader_options.node_id = "kvs1";
  leader_options.followers = {"kvs2", "kvs3"};
  kvs::KvsNode leader(clock_, disk_, net_, leader_options);
  ASSERT_TRUE(leader.Start().ok());

  kvs::KvsClient client(net_, "c", "kvs1");
  ASSERT_TRUE(client.Set("fanout", "both").ok());

  bool f1_seen = false;
  bool f2_seen = false;
  kvs::KvsClient c1(net_, "r1", "kvs2");
  kvs::KvsClient c2(net_, "r2", "kvs3");
  for (int i = 0; i < 100 && !(f1_seen && f2_seen); ++i) {
    clock_.SleepFor(Ms(10));
    f1_seen = f1_seen || c1.Get("fanout").ok();
    f2_seen = f2_seen || c2.Get("fanout").ok();
  }
  EXPECT_TRUE(f1_seen);
  EXPECT_TRUE(f2_seen);
  leader.Stop();
  f1.Stop();
  f2.Stop();
}

TEST(LoggingSweepTest, LevelGateIsCheap) {
  // Disabled levels must not even build the message.
  Logger::Instance().set_min_level(LogLevel::kError);
  int evaluations = 0;
  const auto expensive = [&] {
    ++evaluations;
    return "built";
  };
  WDG_LOG(kDebug) << expensive();
  EXPECT_EQ(evaluations, 0);
  Logger::Instance().set_min_level(LogLevel::kWarn);
}

}  // namespace
}  // namespace wdg
