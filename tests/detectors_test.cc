// Tests for the baseline detectors: heartbeat crash FD, Panorama-style
// client observer, API probe.
#include <gtest/gtest.h>

#include "src/detectors/api_probe.h"
#include "src/detectors/client_observer.h"
#include "src/detectors/heartbeat.h"

namespace wdg {
namespace {

class HeartbeatTest : public ::testing::Test {
 protected:
  HeartbeatTest() : injector_(clock_), net_(clock_, injector_, FastNet()) {}
  static NetOptions FastNet() {
    NetOptions options;
    options.base_latency = Us(20);
    return options;
  }
  RealClock& clock_ = RealClock::Instance();
  FaultInjector injector_;
  SimNet net_;
};

TEST_F(HeartbeatTest, SteadyBeatsKeepNodeHealthy) {
  HeartbeatDetectorOptions options;
  options.suspicion_timeout = Ms(80);
  HeartbeatDetector detector(clock_, net_, options);
  detector.Track("node1");
  detector.Start();
  Endpoint* node = net_.CreateEndpoint("node1");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(node->Send("monitor", "hb", "node1").ok());
    clock_.SleepFor(Ms(20));
  }
  EXPECT_FALSE(detector.Suspects("node1"));
  EXPECT_GE(detector.heartbeats_seen(), 5);
  detector.Stop();
}

TEST_F(HeartbeatTest, SilenceTriggersSuspicion) {
  HeartbeatDetectorOptions options;
  options.suspicion_timeout = Ms(60);
  HeartbeatDetector detector(clock_, net_, options);
  detector.Track("node1");
  detector.Start();
  clock_.SleepFor(Ms(150));
  EXPECT_TRUE(detector.Suspects("node1"));
  ASSERT_TRUE(detector.SuspectTime("node1").has_value());
  detector.Stop();
}

TEST_F(HeartbeatTest, BeatRescindsSuspicion) {
  HeartbeatDetectorOptions options;
  options.suspicion_timeout = Ms(50);
  HeartbeatDetector detector(clock_, net_, options);
  detector.Track("node1");
  detector.Start();
  clock_.SleepFor(Ms(120));
  EXPECT_TRUE(detector.Suspects("node1"));
  Endpoint* node = net_.CreateEndpoint("node1");
  ASSERT_TRUE(node->Send("monitor", "hb", "node1").ok());
  clock_.SleepFor(Ms(40));
  EXPECT_FALSE(detector.Suspects("node1"));
  detector.Stop();
}

TEST_F(HeartbeatTest, UntrackedNodesIgnored) {
  HeartbeatDetector detector(clock_, net_, {});
  detector.Start();
  EXPECT_FALSE(detector.Suspects("stranger"));
  detector.Stop();
}

TEST(ClientObserverTest, HealthyUntilEnoughEvidence) {
  ClientObserver observer(RealClock::Instance());
  observer.ReportFailure(StatusCode::kTimeout);
  observer.ReportFailure(StatusCode::kTimeout);
  // Only two samples < min_samples → still healthy (no hair-trigger).
  EXPECT_EQ(observer.Verdict(), ObserverVerdict::kHealthy);
  observer.ReportFailure(StatusCode::kTimeout);
  EXPECT_EQ(observer.Verdict(), ObserverVerdict::kUnhealthy);
  EXPECT_TRUE(observer.FirstUnhealthyTime().has_value());
}

TEST(ClientObserverTest, MixedEvidenceDegrades) {
  ClientObserverOptions options;
  options.min_samples = 4;
  options.degraded_error_ratio = 0.2;
  options.unhealthy_error_ratio = 0.6;
  ClientObserver observer(RealClock::Instance(), options);
  observer.ReportSuccess();
  observer.ReportSuccess();
  observer.ReportSuccess();
  observer.ReportFailure(StatusCode::kTimeout);
  EXPECT_EQ(observer.Verdict(), ObserverVerdict::kDegraded);
}

TEST(ClientObserverTest, ObserveWrapsOperations) {
  ClientObserver observer(RealClock::Instance());
  EXPECT_TRUE(observer.Observe([] { return Status::Ok(); }).ok());
  EXPECT_FALSE(observer.Observe([] { return IoError("x"); }).ok());
  EXPECT_EQ(observer.samples(), 2);
}

TEST(ClientObserverTest, OldEvidenceAges0ut) {
  ClientObserverOptions options;
  options.window = Ms(30);
  ClientObserver observer(RealClock::Instance(), options);
  observer.ReportFailure(StatusCode::kTimeout);
  observer.ReportFailure(StatusCode::kTimeout);
  observer.ReportFailure(StatusCode::kTimeout);
  EXPECT_EQ(observer.Verdict(), ObserverVerdict::kUnhealthy);
  RealClock::Instance().SleepFor(Ms(60));
  EXPECT_EQ(observer.Verdict(), ObserverVerdict::kHealthy);  // window slid past
}

TEST(ApiProbeTest, AlarmsOnPersistentFailure) {
  RealClock& clock = RealClock::Instance();
  std::atomic<bool> healthy{true};
  ApiProbeOptions options;
  options.interval = Ms(10);
  options.consecutive_failures_needed = 2;
  ApiProbeDetector detector(
      clock, [&] { return healthy ? Status::Ok() : TimeoutError("down"); }, options);
  detector.Start();
  clock.SleepFor(Ms(50));
  EXPECT_FALSE(detector.Alarmed());
  healthy = false;
  clock.SleepFor(Ms(80));
  detector.Stop();
  EXPECT_TRUE(detector.Alarmed());
  EXPECT_GE(detector.probes_sent(), 5);
  EXPECT_GE(detector.probes_failed(), 2);
}

TEST(ApiProbeTest, SingleBlipDebounced) {
  RealClock& clock = RealClock::Instance();
  std::atomic<int> calls{0};
  ApiProbeOptions options;
  options.interval = Ms(10);
  options.consecutive_failures_needed = 3;
  ApiProbeDetector detector(
      clock,
      [&] {
        // Fail exactly once, on the second probe.
        return ++calls == 2 ? IoError("blip") : Status::Ok();
      },
      options);
  detector.Start();
  clock.SleepFor(Ms(100));
  detector.Stop();
  EXPECT_FALSE(detector.Alarmed());
}

}  // namespace
}  // namespace wdg
