// Tests for the §2 / §5.2 extension features: the classic multi-stage
// WatchdogTimer and the failure-inducing context dump a signature carries.
#include <gtest/gtest.h>

#include <atomic>

#include "src/common/strings.h"
#include "src/supervisor/watchdog_timer.h"
#include "src/watchdog/context.h"

namespace wdg {
namespace {

// ------------------------------------------------------------ watchdog timer

TEST(WatchdogTimerTest, KickingPreventsExpiry) {
  RealClock& clock = RealClock::Instance();
  WatchdogTimerOptions options;
  options.stage_interval = Ms(50);
  WatchdogTimer wdt(clock, options);
  std::atomic<int> fired{0};
  wdt.AddStage("reset", [&] { ++fired; });
  wdt.Start();
  for (int i = 0; i < 10; ++i) {
    clock.SleepFor(Ms(15));
    wdt.Kick();
  }
  wdt.Stop();
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(wdt.kick_count(), 10);
}

TEST(WatchdogTimerTest, StagesFireInOrderOnSilence) {
  RealClock& clock = RealClock::Instance();
  WatchdogTimerOptions options;
  options.stage_interval = Ms(30);
  WatchdogTimer wdt(clock, options);
  std::vector<std::string> order;
  std::mutex mu;
  wdt.AddStage("interrupt", [&] { std::lock_guard<std::mutex> l(mu); order.push_back("interrupt"); });
  wdt.AddStage("fail-safe", [&] { std::lock_guard<std::mutex> l(mu); order.push_back("fail-safe"); });
  wdt.AddStage("reset", [&] { std::lock_guard<std::mutex> l(mu); order.push_back("reset"); });
  wdt.Start();
  clock.SleepFor(Ms(150));  // silence: all three stages due
  wdt.Stop();
  std::lock_guard<std::mutex> l(mu);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "interrupt");
  EXPECT_EQ(order[1], "fail-safe");
  EXPECT_EQ(order[2], "reset");
}

TEST(WatchdogTimerTest, KickRearmsAfterPartialEscalation) {
  RealClock& clock = RealClock::Instance();
  WatchdogTimerOptions options;
  options.stage_interval = Ms(30);
  WatchdogTimer wdt(clock, options);
  std::atomic<int> stage1{0};
  std::atomic<int> stage2{0};
  wdt.AddStage("warn", [&] { ++stage1; });
  wdt.AddStage("reset", [&] { ++stage2; });
  wdt.Start();
  clock.SleepFor(Ms(45));  // stage 1 fires, stage 2 not yet
  EXPECT_GE(wdt.stages_fired(), 1);
  wdt.Kick();              // system recovers
  clock.SleepFor(Ms(20));
  wdt.Stop();
  EXPECT_GE(stage1.load(), 1);
  EXPECT_EQ(stage2.load(), 0);  // escalation was cancelled by the kick
  EXPECT_EQ(wdt.stages_fired(), 0);
}

TEST(WatchdogTimerTest, StagesExhaustOnceUntilKicked) {
  RealClock& clock = RealClock::Instance();
  WatchdogTimerOptions options;
  options.stage_interval = Ms(20);
  WatchdogTimer wdt(clock, options);
  std::atomic<int> resets{0};
  wdt.AddStage("reset", [&] { ++resets; });
  wdt.Start();
  clock.SleepFor(Ms(120));
  wdt.Stop();
  EXPECT_EQ(resets.load(), 1);  // fires once per episode, not per poll
}

// --------------------------------------------------------------------- Dump

// A failure signature's context dump with more keys than any hook batch and
// one spill-block string (> 48 bytes): Dump() lists every key sorted by name,
// whatever the intern order, and carries the long string verbatim.
TEST(DumpTest, ManyKeysAndALongStringDumpSortedAndVerbatim) {
  // Interned first, so its slot sorts before the rt.k* keys while its name
  // sorts after them.
  static const auto kLong = ContextKey<std::string>::Of("rt.long");
  CheckContext ctx("c");
  for (int i = 0; i < 20; ++i) {
    ctx.Set(ContextKey<int64_t>::Of(StrFormat("rt.k%02d", i)), i * 11);
  }
  const std::string long_value(300, 'L');
  ctx.Set(kLong, long_value);
  ctx.MarkReady(1);
  EXPECT_EQ(ctx.Snapshot().size(), 21u);

  std::string expected = "{";
  for (int i = 0; i < 20; ++i) {
    expected += StrFormat("rt.k%02d=i:%d, ", i, i * 11);
  }
  expected += "rt.long=s:" + long_value + "}";
  EXPECT_EQ(ctx.Dump(), expected);
}

}  // namespace
}  // namespace wdg
