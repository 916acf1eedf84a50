// Unit tests for the fault injector and fault plans.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/common/clock.h"
#include "src/fault/fault_injector.h"
#include "tests/support/fault_plan.h"

namespace wdg {
namespace {

FaultSpec MakeSpec(std::string id, std::string pattern, FaultKind kind) {
  FaultSpec spec;
  spec.id = std::move(id);
  spec.site_pattern = std::move(pattern);
  spec.kind = kind;
  return spec;
}

TEST(FaultInjectorTest, NoFaultsNoEffect) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  const FaultOutcome outcome = injector.OnSite("disk.write");
  EXPECT_FALSE(outcome.fired);
  EXPECT_EQ(injector.SiteHits("disk.write"), 1);
}

TEST(FaultInjectorTest, ErrorFault) {
  FaultInjector injector(RealClock::Instance());
  FaultSpec spec = MakeSpec("f1", "disk.write", FaultKind::kError);
  spec.error_code = StatusCode::kIoError;
  injector.Inject(spec);
  const Status status = injector.Act("disk.write");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(injector.FireCount("f1"), 1);
  // Other sites untouched.
  EXPECT_TRUE(injector.Act("disk.read").ok());
}

TEST(FaultInjectorTest, PatternMatchesPrefix) {
  FaultInjector injector(RealClock::Instance());
  injector.Inject(MakeSpec("f1", "net.send.*", FaultKind::kError));
  EXPECT_FALSE(injector.Act("net.send.node2").ok());
  EXPECT_TRUE(injector.Act("net.recv.node2").ok());
}

TEST(FaultInjectorTest, DelayFaultSleeps) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec spec = MakeSpec("slow", "disk.write", FaultKind::kDelay);
  spec.delay = Ms(30);
  injector.Inject(spec);
  const TimeNs start = clock.NowNs();
  EXPECT_TRUE(injector.Act("disk.write").ok());
  EXPECT_GE(clock.NowNs() - start, Ms(25));
}

TEST(FaultInjectorTest, HangParksUntilRemoved) {
  FaultInjector injector(RealClock::Instance());
  injector.Inject(MakeSpec("stuck", "net.send.peer", FaultKind::kHang));
  std::atomic<bool> returned{false};
  std::thread blocked([&] {
    injector.Act("net.send.peer");
    returned = true;
  });
  while (injector.parked_thread_count() == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(returned.load());
  injector.Remove("stuck");
  blocked.join();
  EXPECT_TRUE(returned.load());
}

TEST(FaultInjectorTest, ClearAllReleasesEveryone) {
  FaultInjector injector(RealClock::Instance());
  injector.Inject(MakeSpec("h1", "a", FaultKind::kHang));
  injector.Inject(MakeSpec("h2", "b", FaultKind::kBusyLoop));
  std::thread t1([&] { injector.Act("a"); });
  std::thread t2([&] { injector.Act("b"); });
  while (injector.parked_thread_count() < 2) {
    std::this_thread::yield();
  }
  injector.ClearAll();
  t1.join();
  t2.join();
  EXPECT_TRUE(injector.ActiveFaultIds().empty());
}

TEST(FaultInjectorTest, CorruptionMutatesPayload) {
  FaultInjector injector(RealClock::Instance());
  injector.Inject(MakeSpec("rot", "disk.write", FaultKind::kCorruption));
  std::string payload = "pristine data bytes";
  const std::string original = payload;
  EXPECT_TRUE(injector.Act("disk.write", &payload).ok());
  EXPECT_NE(payload, original);
  EXPECT_EQ(payload.size(), original.size());
}

TEST(FaultInjectorTest, SilentDropSignalsDrop) {
  FaultInjector injector(RealClock::Instance());
  injector.Inject(MakeSpec("lost", "disk.append", FaultKind::kSilentDrop));
  bool dropped = false;
  std::string payload = "data";
  EXPECT_TRUE(injector.Act("disk.append", &payload, &dropped).ok());
  EXPECT_TRUE(dropped);
}

TEST(FaultInjectorTest, AfterNHitsDefersFiring) {
  FaultInjector injector(RealClock::Instance());
  FaultSpec spec = MakeSpec("late", "op", FaultKind::kError);
  spec.after_n_hits = 3;
  injector.Inject(spec);
  EXPECT_TRUE(injector.Act("op").ok());
  EXPECT_TRUE(injector.Act("op").ok());
  EXPECT_TRUE(injector.Act("op").ok());
  EXPECT_FALSE(injector.Act("op").ok());
}

TEST(FaultInjectorTest, MaxFiresLimitsFiring) {
  FaultInjector injector(RealClock::Instance());
  FaultSpec spec = MakeSpec("twice", "op", FaultKind::kError);
  spec.max_fires = 2;
  injector.Inject(spec);
  EXPECT_FALSE(injector.Act("op").ok());
  EXPECT_FALSE(injector.Act("op").ok());
  EXPECT_TRUE(injector.Act("op").ok());
  EXPECT_EQ(injector.FireCount("twice"), 2);
}

TEST(FaultInjectorTest, ProbabilityZeroNeverFires) {
  FaultInjector injector(RealClock::Instance());
  FaultSpec spec = MakeSpec("never", "op", FaultKind::kError);
  spec.probability = 0.0;
  injector.Inject(spec);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.Act("op").ok());
  }
}

TEST(FaultInjectorTest, ProbabilityRoughlyRespected) {
  FaultInjector injector(RealClock::Instance(), /*seed=*/99);
  FaultSpec spec = MakeSpec("half", "op", FaultKind::kError);
  spec.probability = 0.5;
  injector.Inject(spec);
  int fails = 0;
  for (int i = 0; i < 1000; ++i) {
    fails += injector.Act("op").ok() ? 0 : 1;
  }
  EXPECT_NEAR(fails, 500, 100);
}

TEST(FaultInjectorTest, ReInjectionReleasesOldWaiters) {
  FaultInjector injector(RealClock::Instance());
  injector.Inject(MakeSpec("h", "op", FaultKind::kHang));
  std::thread blocked([&] { injector.Act("op"); });
  while (injector.parked_thread_count() == 0) {
    std::this_thread::yield();
  }
  // Re-injecting under the same id bumps the epoch — the old waiter drains.
  injector.Inject(MakeSpec("h", "other_site", FaultKind::kHang));
  blocked.join();
  injector.ClearAll();
}

TEST(FaultInjectorTest, CorruptBytesDeterministic) {
  std::string a = "payload payload payload";
  std::string b = a;
  FaultInjector::CorruptBytes(a, 5);
  FaultInjector::CorruptBytes(b, 5);
  EXPECT_EQ(a, b);
  std::string c = "payload payload payload";
  FaultInjector::CorruptBytes(c, 6);
  EXPECT_NE(a, c);  // different salt, different damage (overwhelmingly likely)
}

TEST(FaultPlanTest, SchedulesInjectAndRemove) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultPlan plan(injector, clock);
  plan.InjectAt(Ms(10), MakeSpec("windowed", "op", FaultKind::kError))
      .RemoveAt(Ms(60), "windowed");
  plan.Start();
  EXPECT_TRUE(injector.Act("op").ok());  // before window
  clock.SleepFor(Ms(30));
  EXPECT_FALSE(injector.Act("op").ok());  // inside window
  clock.SleepFor(Ms(60));
  EXPECT_TRUE(injector.Act("op").ok());  // after window
  EXPECT_TRUE(plan.finished());
}

TEST(FaultPlanTest, StopAbortsSchedule) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultPlan plan(injector, clock);
  plan.InjectAt(Sec(30), MakeSpec("far", "op", FaultKind::kError));
  plan.Start();
  plan.Stop();  // must return promptly, not wait 30s
  EXPECT_TRUE(injector.Act("op").ok());
}

}  // namespace
}  // namespace wdg
