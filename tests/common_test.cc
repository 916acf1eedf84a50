// Unit tests for src/common: status, result, strings, checksum, config,
// metrics, rng, clock, threading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <thread>

#include "src/common/checksum.h"
#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/threading.h"

namespace wdg {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = TimeoutError("flush stalled");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(s.ToString(), "TIMEOUT: flush stalled");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusTest, FactoryHelpersSetExpectedCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(CorruptionError("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubled(Result<int> input) {
  WDG_ASSIGN_OR_RETURN(const int v, input);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(InternalError("boom")).status().code(), StatusCode::kInternal);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "x", 7), "x=7");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

// The pre-sizing two-pass formatter StrFormat must match byte for byte.
std::string TwoPassFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string TwoPassFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(static_cast<size_t>(std::max(needed, 0)), '\0');
  if (needed > 0) {
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

// StrFormat formats once into a 256-byte stack buffer and again only when
// the result does not fit: 255 characters (plus the terminator) fill it, 256
// and up take the second pass.
TEST(StringsTest, StrFormatMatchesTwoPassAroundTheStackBuffer) {
  EXPECT_EQ(StrFormat("%s", ""), TwoPassFormat("%s", ""));
  EXPECT_EQ(StrFormat("%s", ""), "");
  for (const size_t length : {size_t{1}, size_t{255}, size_t{256}, size_t{257},
                              size_t{10 * 1024}}) {
    std::string body(length - 1, 'x');
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<char>('a' + i % 26);
    }
    const std::string formatted = StrFormat("%s%d", body.c_str(), 7);
    EXPECT_EQ(formatted.size(), length);
    EXPECT_EQ(formatted, TwoPassFormat("%s%d", body.c_str(), 7)) << length;
    EXPECT_EQ(formatted.back(), '7');
  }
}

TEST(StringsTest, StrSplit) {
  const auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(StrTrim("  x \n"), "x");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, SitePatternMatching) {
  EXPECT_TRUE(SitePatternMatches("*", "anything.at.all"));
  EXPECT_TRUE(SitePatternMatches("disk.*", "disk.write"));
  EXPECT_FALSE(SitePatternMatches("disk.*", "net.send"));
  EXPECT_TRUE(SitePatternMatches("disk.write", "disk.write"));
  EXPECT_FALSE(SitePatternMatches("disk.write", "disk.writeX"));
}

TEST(ChecksumTest, KnownVector) {
  // CRC32("123456789") == 0xCBF43926 (classic check value).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(ChecksumTest, ExtendMatchesWhole) {
  const uint32_t whole = Crc32("hello world");
  const uint32_t split = Crc32Extend(Crc32("hello "), "world");
  EXPECT_EQ(whole, split);
}

TEST(ChecksumTest, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  const uint32_t before = Crc32(data);
  data[3] ^= 0x01;
  EXPECT_NE(before, Crc32(data));
}

// The plain byte-at-a-time table CRC: the reference the sliced loop and the
// fold kernel must match.
uint32_t BytewiseCrc32Extend(uint32_t crc, std::string_view data) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  uint32_t c = crc ^ 0xffffffffu;
  for (const char ch : data) {
    c = table[(c ^ static_cast<uint8_t>(ch)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::string out(size, '\0');
  for (char& ch : out) {
    ch = static_cast<char>(rng.Uniform(0, 255));
  }
  return out;
}

// Lengths 0-300 cover the sliced-only path (< 64 bytes), the fold kernel's
// 64-byte threshold and every 1-15 byte tail it leaves to the sliced loop;
// offsets 0-15 cover every alignment of its 16-byte loads.
TEST(ChecksumTest, MatchesBytewiseAtEveryLengthAndOffset) {
  const std::string buffer = RandomBytes(300 + 16, 1);
  for (const uint32_t seed : {0u, 0x9e3779b9u}) {
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t length = 0; length <= 300; ++length) {
        const std::string_view data = std::string_view(buffer).substr(offset, length);
        EXPECT_EQ(Crc32Extend(seed, data), BytewiseCrc32Extend(seed, data))
            << "seed " << seed << " offset " << offset << " length " << length;
      }
    }
  }
}

TEST(ChecksumTest, MatchesBytewiseOnTableSizedBuffer) {
  const std::string buffer = RandomBytes(79 * 1024, 2);
  EXPECT_EQ(Crc32(buffer), BytewiseCrc32Extend(0, buffer));
}

TEST(ChecksumTest, MatchesBytewiseOnMegabyteBuffer) {
  const std::string buffer = RandomBytes(1 << 20, 4);
  EXPECT_EQ(Crc32(buffer), BytewiseCrc32Extend(0, buffer));
}

// 300 bytes: for most splits both halves are long enough for the fold kernel,
// so its output must chain into a second call exactly like the sliced CRC's.
TEST(ChecksumTest, ExtendMatchesBytewiseAtEverySplit) {
  const std::string data = RandomBytes(300, 3);
  const uint32_t whole = BytewiseCrc32Extend(0, data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const std::string_view view(data);
    EXPECT_EQ(Crc32Extend(Crc32(view.substr(0, split)), view.substr(split)), whole)
        << "split at " << split;
  }
}

TEST(MetricsTest, CounterAndGauge) {
  MetricsRegistry registry;
  registry.GetCounter("ops")->Increment(3);
  registry.GetCounter("ops")->Increment();
  registry.GetGauge("depth")->Set(17.5);
  EXPECT_EQ(registry.GetCounter("ops")->Value(), 4);
  EXPECT_DOUBLE_EQ(registry.GetGauge("depth")->Value(), 17.5);
  const auto snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.at("ops"), 4.0);
}

TEST(MetricsTest, HistogramStats) {
  Histogram hist;
  for (int i = 1; i <= 100; ++i) {
    hist.Record(i);
  }
  EXPECT_EQ(hist.count(), 100);
  EXPECT_DOUBLE_EQ(hist.Min(), 1);
  EXPECT_DOUBLE_EQ(hist.Max(), 100);
  EXPECT_DOUBLE_EQ(hist.Mean(), 50.5);
  EXPECT_NEAR(hist.Percentile(50), 50, 2);
  EXPECT_NEAR(hist.Percentile(99), 99, 2);
}

TEST(MetricsTest, StablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter(StrFormat("c%d", i));
  }
  EXPECT_EQ(a, registry.GetCounter("x"));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Uniform(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(SimClockTest, AdvanceWakesSleepers) {
  SimClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepFor(Ms(100));
    woke = true;
  });
  while (clock.sleeper_count() == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(woke.load());
  clock.Advance(Ms(50));
  EXPECT_FALSE(woke.load());
  clock.Advance(Ms(60));
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(clock.NowNs(), Ms(110));
}

TEST(SimClockTest, ShutdownReleasesSleepers) {
  SimClock clock;
  std::thread sleeper([&] { clock.SleepFor(Sec(100)); });
  while (clock.sleeper_count() == 0) {
    std::this_thread::yield();
  }
  clock.Shutdown();
  sleeper.join();  // must not hang
}

TEST(RealClockTest, MonotoneAndSleeps) {
  RealClock& clock = RealClock::Instance();
  const TimeNs a = clock.NowNs();
  clock.SleepFor(Ms(5));
  const TimeNs b = clock.NowNs();
  EXPECT_GE(b - a, Ms(4));
}

TEST(ClockTest, WaitUntilPredicate) {
  SimClock clock;
  std::atomic<int> calls{0};
  std::thread advancer([&] {
    while (clock.NowNs() < Ms(50)) {
      clock.Advance(Ms(10));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const bool ok = clock.WaitUntil(Ms(100), [&] { return ++calls > 3; }, Ms(5));
  advancer.join();
  EXPECT_TRUE(ok);
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.Push(i, Ms(10)));
  }
  for (int i = 0; i < 5; ++i) {
    const auto v = queue.Pop(Ms(10));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, PushTimesOutWhenFull) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1, Ms(5)));
  EXPECT_FALSE(queue.Push(2, Ms(5)));
}

TEST(BoundedQueueTest, PopTimesOutWhenEmpty) {
  BoundedQueue<int> queue(1);
  EXPECT_FALSE(queue.Pop(Ms(5)).has_value());
}

TEST(BoundedQueueTest, ShutdownUnblocksWaiters) {
  BoundedQueue<int> queue(1);
  std::thread popper([&] { EXPECT_FALSE(queue.Pop(Sec(60)).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Shutdown();
  popper.join();
  EXPECT_FALSE(queue.Push(1, Ms(5)));
}

TEST(BoundedQueueTest, ConcurrentProducersConsumers) {
  BoundedQueue<int> queue(16);
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(queue.Push(p * 100 + i, Sec(5)));
      }
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        const auto v = queue.Pop(Sec(5));
        ASSERT_TRUE(v.has_value());
        sum += *v;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  int expected = 0;
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 100; ++i) {
      expected += p * 100 + i;
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(StopFlagTest, WaitForReactsToRequest) {
  StopFlag flag;
  EXPECT_FALSE(flag.WaitFor(Ms(5)));
  std::thread requester([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    flag.Request();
  });
  EXPECT_TRUE(flag.WaitFor(Sec(5)));
  requester.join();
  EXPECT_TRUE(flag.Requested());
}

TEST(LoggingTest, CaptureSinkSeesMessages) {
  CaptureSink sink;
  Logger::Instance().AddSink(&sink);
  Logger::Instance().set_min_level(LogLevel::kInfo);
  WDG_LOG(kInfo) << "hello " << 42;
  WDG_LOG(kDebug) << "should be filtered";
  Logger::Instance().set_min_level(LogLevel::kWarn);
  Logger::Instance().RemoveSink(&sink);
  EXPECT_TRUE(sink.Contains("hello 42"));
  EXPECT_FALSE(sink.Contains("filtered"));
}

TEST(LogicalTimeTest, ConversionMatchesConvention) {
  // 700 real ms == 7 logical (paper) seconds.
  EXPECT_DOUBLE_EQ(ToLogicalSeconds(Ms(700)), 7.0);
}

}  // namespace
}  // namespace wdg
