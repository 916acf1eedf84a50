// Supervisor-plane tests: frame codec and torn-frame handling, pipe
// transport semantics (EOF ordering, leak oracle), the wdogd escalation
// ladder (warn → restart → reboot with respawn budget; rung positions, one
// warn per silence episode, renegotiated deadlines, one daemon thread),
// crash/protocol-error paths, and the WatchdogDriver supervised mode end to
// end — including the §3.3 scenario where a wedged executor silently
// withholds kicks and only the out-of-process supervisor notices.
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/fault/fault_injector.h"
#include "src/sim/sim_disk.h"
#include "src/supervisor/protocol.h"
#include "src/supervisor/transport.h"
#include "src/supervisor/wdog_client.h"
#include "src/supervisor/wdogd.h"
#include "src/watchdog/builder.h"
#include "src/watchdog/builtin_checkers.h"
#include "src/watchdog/driver.h"

namespace wdg {
namespace {

// Busy-waits (with real sleeps) until `pred` holds or `timeout` passes.
template <typename Pred>
bool WaitUntil(Clock& clock, DurationNs timeout, Pred pred) {
  const TimeNs deadline = clock.NowNs() + timeout;
  while (clock.NowNs() < deadline) {
    if (pred()) {
      return true;
    }
    clock.SleepFor(Ms(2));
  }
  return pred();
}

// A fast ladder so a full walk fits in test time.
EscalationPolicy FastPolicy() {
  EscalationPolicy policy;
  policy.default_deadline = Ms(40);
  policy.min_deadline = Ms(20);
  policy.warn_misses = 1;
  policy.restart_misses = 2;
  policy.max_respawns = 3;
  policy.restart_backoff = Ms(2);
  return policy;
}

WdogdOptions FastOptions() {
  WdogdOptions options;
  options.policy = FastPolicy();
  options.poll = Ms(1);
  return options;
}

// ------------------------------------------------------------------ codec

TEST(FrameCodecTest, RoundTripsEveryFrameType) {
  Frame subscribe;
  subscribe.type = FrameType::kSubscribe;
  subscribe.name = "kvs-node";
  subscribe.deadline = Ms(75);

  Frame sub_ack;
  sub_ack.type = FrameType::kSubscribeAck;
  sub_ack.client_id = 42;
  sub_ack.deadline = Ms(60);

  Frame kick;
  kick.type = FrameType::kKick;
  kick.seq = 7;

  Frame kick_ack;
  kick_ack.type = FrameType::kKickAck;
  kick_ack.seq = 7;

  Frame warn;
  warn.type = FrameType::kWarn;
  warn.message = "missed 1 deadline";

  Frame unsub;
  unsub.type = FrameType::kUnsubscribe;

  Frame unsub_ack;
  unsub_ack.type = FrameType::kUnsubscribeAck;

  FrameReader reader;
  for (const Frame& frame : {subscribe, sub_ack, kick, kick_ack, warn, unsub, unsub_ack}) {
    reader.Append(EncodeFrame(frame));
  }

  auto next = reader.Next();
  ASSERT_TRUE(next.ok() && next->has_value());
  EXPECT_EQ((*next)->type, FrameType::kSubscribe);
  EXPECT_EQ((*next)->name, "kvs-node");
  EXPECT_EQ((*next)->deadline, Ms(75));

  next = reader.Next();
  ASSERT_TRUE(next.ok() && next->has_value());
  EXPECT_EQ((*next)->type, FrameType::kSubscribeAck);
  EXPECT_EQ((*next)->client_id, 42u);
  EXPECT_EQ((*next)->deadline, Ms(60));

  next = reader.Next();
  ASSERT_TRUE(next.ok() && next->has_value());
  EXPECT_EQ((*next)->type, FrameType::kKick);
  EXPECT_EQ((*next)->seq, 7u);

  next = reader.Next();
  ASSERT_TRUE(next.ok() && next->has_value());
  EXPECT_EQ((*next)->type, FrameType::kKickAck);

  next = reader.Next();
  ASSERT_TRUE(next.ok() && next->has_value());
  EXPECT_EQ((*next)->type, FrameType::kWarn);
  EXPECT_EQ((*next)->message, "missed 1 deadline");

  next = reader.Next();
  ASSERT_TRUE(next.ok() && next->has_value());
  EXPECT_EQ((*next)->type, FrameType::kUnsubscribe);

  next = reader.Next();
  ASSERT_TRUE(next.ok() && next->has_value());
  EXPECT_EQ((*next)->type, FrameType::kUnsubscribeAck);

  next = reader.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(FrameCodecTest, ByteByByteDeliveryYieldsNothingUntilComplete) {
  Frame frame;
  frame.type = FrameType::kSubscribe;
  frame.name = "torn";
  frame.deadline = Ms(30);
  const std::string wire = EncodeFrame(frame);

  FrameReader reader;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    reader.Append(std::string_view(&wire[i], 1));
    auto next = reader.Next();
    ASSERT_TRUE(next.ok()) << "byte " << i << ": " << next.status().ToString();
    EXPECT_FALSE(next->has_value()) << "frame surfaced " << (wire.size() - i - 1)
                                    << " bytes early";
  }
  reader.Append(std::string_view(&wire[wire.size() - 1], 1));
  auto next = reader.Next();
  ASSERT_TRUE(next.ok() && next->has_value());
  EXPECT_EQ((*next)->name, "torn");
}

TEST(FrameCodecTest, OversizedLengthPoisonsTheStream) {
  FrameReader reader;
  // Length prefix far beyond kMaxPayload.
  reader.Append(std::string("\xff\xff\xff\x7f", 4));
  reader.Append(std::string("\x01", 1));
  auto next = reader.Next();
  EXPECT_FALSE(next.ok());
  // Poisoned: even valid bytes afterwards never parse.
  reader.Append(EncodeFrame(Frame{}));
  EXPECT_FALSE(reader.Next().ok());
}

TEST(FrameCodecTest, UnknownFrameTypeIsMalformed) {
  // [len=1][type=0x63] — type 99 does not exist.
  FrameReader reader;
  reader.Append(std::string("\x01\x00\x00\x00\x63", 5));
  EXPECT_FALSE(reader.Next().ok());
}

TEST(ResetRecordTest, EncodeDecodeRoundTripsEscapedText) {
  ResetRecord record;
  record.at = 123456789;
  record.client = "kvs\tleader";  // embedded tab must survive the tab-separated line
  record.cause = ResetCause::kMissedKickRestart;
  record.silence = Ms(80);
  record.respawns = 2;
  record.detail = "line1\nline2";

  auto decoded = ResetRecord::Decode(ResetRecord::Encode(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->at, record.at);
  EXPECT_EQ(decoded->client, record.client);
  EXPECT_EQ(decoded->cause, record.cause);
  EXPECT_EQ(decoded->silence, record.silence);
  EXPECT_EQ(decoded->respawns, record.respawns);
  EXPECT_EQ(decoded->detail, record.detail);

  EXPECT_FALSE(ResetRecord::Decode("not a record").ok());
}

// -------------------------------------------------------------- transport

TEST(PipeTest, DeliversBufferedBytesBeforeEof) {
  RealClock& clock = RealClock::Instance();
  PipePair pair = CreatePipePair(clock);
  ASSERT_TRUE(pair.first->Write("last words").ok());
  pair.first->Close();

  // The dying writer's bytes drain first; only then EOF.
  auto read = pair.second->Read(64, Ms(50));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "last words");
  auto eof = pair.second->Read(64, Ms(50));
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kAborted);

  // EPIPE on writes into a closed peer.
  EXPECT_EQ(pair.second->Write("anyone?").code(), StatusCode::kAborted);
  pair.second->Close();
}

TEST(PipeTest, CloseIsIdempotentForTheLeakOracle) {
  RealClock& clock = RealClock::Instance();
  const int64_t baseline = PipeEndpoint::open_count();
  {
    PipePair pair = CreatePipePair(clock);
    EXPECT_EQ(PipeEndpoint::open_count(), baseline + 2);
    pair.first->Close();
    pair.first->Close();  // double close must not double-decrement
    EXPECT_EQ(PipeEndpoint::open_count(), baseline + 1);
  }
  EXPECT_EQ(PipeEndpoint::open_count(), baseline);
}

// ------------------------------------------------------------------ wdogd

TEST(WdogdTest, LifecycleStatuses) {
  RealClock& clock = RealClock::Instance();
  Wdogd wdogd(clock, FastOptions());
  EXPECT_EQ(wdogd.Stop().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(wdogd.Start().ok());
  EXPECT_EQ(wdogd.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(wdogd.Stop().ok());
  EXPECT_EQ(wdogd.Start().code(), StatusCode::kFailedPrecondition);  // one-shot
}

TEST(WdogdTest, HealthyClientKicksAndLeavesCleanly) {
  RealClock& clock = RealClock::Instance();
  const int64_t baseline = PipeEndpoint::open_count();
  Wdogd wdogd(clock, FastOptions());
  ASSERT_TRUE(wdogd.Start().ok());
  {
    auto pipe = wdogd.Connect(SimProcess{});
    ASSERT_TRUE(pipe.ok());
    WdogClient client(clock, std::move(*pipe));
    ASSERT_TRUE(client.Subscribe("healthy", Ms(60), Ms(500)).ok());
    EXPECT_TRUE(client.subscribed());
    EXPECT_EQ(client.granted_deadline(), Ms(60));

    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(client.Kick().ok());
      clock.SleepFor(Ms(10));
    }
    EXPECT_TRUE(WaitUntil(clock, Ms(300), [&] { return wdogd.kick_count() >= 8; }));
    EXPECT_EQ(wdogd.warn_count(), 0);
    EXPECT_EQ(wdogd.restart_count(), 0);

    ASSERT_TRUE(client.Unsubscribe(Ms(500)).ok());
    client.Close();
    // A clean departure is not a crash.
    EXPECT_TRUE(WaitUntil(clock, Ms(300), [&] { return wdogd.Clients().empty(); }));
    EXPECT_EQ(wdogd.crash_count(), 0);
  }
  ASSERT_TRUE(wdogd.Stop().ok());
  EXPECT_EQ(PipeEndpoint::open_count(), baseline);
}

TEST(WdogdTest, MissedKicksWalkWarnThenRestart) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  SimDisk journal(clock, injector);
  std::atomic<int> restarts{0};
  std::atomic<bool> warned{false};

  WdogdOptions options = FastOptions();
  options.journal_disk = &journal;
  Wdogd wdogd(clock, options);
  ASSERT_TRUE(wdogd.Start().ok());

  SimProcess process;
  process.on_warn = [&] { warned.store(true); };
  process.restart = [&] {
    restarts.fetch_add(1);
    return Status::Ok();
  };
  auto pipe = wdogd.Connect(process);
  ASSERT_TRUE(pipe.ok());
  WdogClient client(clock, std::move(*pipe));
  ASSERT_TRUE(client.Subscribe("silent", Ms(40), Ms(500)).ok());
  // ...and then say nothing. Deadline 40ms: warn at ~40ms, restart at ~80ms.
  ASSERT_TRUE(WaitUntil(clock, Sec(2), [&] { return restarts.load() > 0; }));
  EXPECT_TRUE(warned.load());
  EXPECT_GE(client.warns_received(), 1);
  EXPECT_EQ(wdogd.warn_count(), 1);
  EXPECT_EQ(wdogd.restart_count(), 1);

  // The journal has the full story, in ladder order.
  auto journal_records = wdogd.ReadJournal();
  ASSERT_TRUE(journal_records.ok());
  ASSERT_GE(journal_records->size(), 2u);
  EXPECT_EQ((*journal_records)[0].cause, ResetCause::kWarn);
  EXPECT_EQ((*journal_records)[1].cause, ResetCause::kMissedKickRestart);
  EXPECT_GE((*journal_records)[1].silence, Ms(40));
  EXPECT_EQ((*journal_records)[1].respawns, 1);
  ASSERT_TRUE(wdogd.Stop().ok());
}

TEST(WdogdTest, KickDuringBackoffForgivesPendingRestart) {
  RealClock& clock = RealClock::Instance();
  std::atomic<int> restarts{0};
  WdogdOptions options = FastOptions();
  options.policy.restart_backoff = Ms(250);  // a wide forgiveness window
  Wdogd wdogd(clock, options);
  ASSERT_TRUE(wdogd.Start().ok());

  SimProcess process;
  process.restart = [&] {
    restarts.fetch_add(1);
    return Status::Ok();
  };
  auto pipe = wdogd.Connect(process);
  ASSERT_TRUE(pipe.ok());
  WdogClient client(clock, std::move(*pipe));
  ASSERT_TRUE(client.Subscribe("late-riser", Ms(40), Ms(500)).ok());

  // Sleep past the restart rung (2 × 40ms) but inside the backoff, then
  // come back to life.
  ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] {
    for (const auto& info : wdogd.Clients()) {
      if (info.restart_pending) {
        return true;
      }
    }
    return false;
  }));
  ASSERT_TRUE(client.Kick().ok());
  clock.SleepFor(Ms(300));  // backoff expires; the kick must have forgiven it
  EXPECT_EQ(restarts.load(), 0);
  ASSERT_TRUE(client.Unsubscribe(Ms(500)).ok());
  ASSERT_TRUE(wdogd.Stop().ok());
}

TEST(WdogdTest, CrashWithoutUnsubscribeTriggersRestart) {
  RealClock& clock = RealClock::Instance();
  std::atomic<int> restarts{0};
  Wdogd wdogd(clock, FastOptions());
  ASSERT_TRUE(wdogd.Start().ok());

  SimProcess process;
  process.restart = [&] {
    restarts.fetch_add(1);
    return Status::Ok();
  };
  auto pipe = wdogd.Connect(process);
  ASSERT_TRUE(pipe.ok());
  {
    WdogClient client(clock, std::move(*pipe));
    ASSERT_TRUE(client.Subscribe("doomed", Ms(40), Ms(500)).ok());
    ASSERT_TRUE(client.Kick().ok());
    // Destructor closes the pipe with no unsubscribe: a crash.
  }
  ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] { return restarts.load() > 0; }));
  EXPECT_EQ(wdogd.crash_count(), 1);
  ASSERT_TRUE(wdogd.Stop().ok());
}

TEST(WdogdTest, ClientDeathMidKickLeaksNothing) {
  RealClock& clock = RealClock::Instance();
  const int64_t baseline = PipeEndpoint::open_count();
  std::atomic<int> restarts{0};
  {
    Wdogd wdogd(clock, FastOptions());
    ASSERT_TRUE(wdogd.Start().ok());
    SimProcess process;
    process.restart = [&] {
      restarts.fetch_add(1);
      return Status::Ok();
    };
    auto pipe = wdogd.Connect(process);
    ASSERT_TRUE(pipe.ok());
    {
      WdogClient client(clock, std::move(*pipe));
      ASSERT_TRUE(client.Subscribe("torn-kick", Ms(40), Ms(500)).ok());
    }
    // The supervisor already reaped the subscriber; now a *new* client dies
    // mid-frame: half a kick on the wire, then the pipe closes.
    auto second = wdogd.Connect(SimProcess{});
    ASSERT_TRUE(second.ok());
    Frame kick;
    kick.type = FrameType::kKick;
    kick.seq = 9;
    const std::string wire = EncodeFrame(kick);
    ASSERT_TRUE((*second)->Write(wire.substr(0, wire.size() / 2)).ok());
    (*second)->Close();
    // A torn final frame from a dead never-subscribed client is just a dead
    // conn; the supervisor must reap it without leaking its pipe ends.
    ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] { return wdogd.Clients().empty(); }));
    ASSERT_TRUE(wdogd.Stop().ok());
  }
  EXPECT_EQ(PipeEndpoint::open_count(), baseline);
}

TEST(WdogdTest, GarbageBytesAreAProtocolError) {
  RealClock& clock = RealClock::Instance();
  std::atomic<int> restarts{0};
  Wdogd wdogd(clock, FastOptions());
  ASSERT_TRUE(wdogd.Start().ok());
  SimProcess process;
  process.restart = [&] {
    restarts.fetch_add(1);
    return Status::Ok();
  };
  auto pipe = wdogd.Connect(process);
  ASSERT_TRUE(pipe.ok());
  WdogClient client(clock, std::move(*pipe));
  ASSERT_TRUE(client.Subscribe("babbler", Ms(40), Ms(500)).ok());
  // Raw garbage after a clean subscribe: oversized length prefix.
  // (The client object still owns the pipe; write through a fresh frame.)
  // We can't reach the pipe through WdogClient, so craft a second client
  // that never subscribes and speaks garbage directly.
  auto babbler = wdogd.Connect(process);
  ASSERT_TRUE(babbler.ok());
  ASSERT_TRUE((*babbler)->Write(std::string("\xff\xff\xff\x7f""junk", 8)).ok());
  ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] { return wdogd.protocol_error_count() > 0; }));
  ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] { return restarts.load() > 0; }));
  (*babbler)->Close();
  ASSERT_TRUE(client.Unsubscribe(Ms(500)).ok());
  ASSERT_TRUE(wdogd.Stop().ok());
}

// A poisoned stream stays poisoned through the restart backoff; that is one
// protocol error, not one per daemon pass.
TEST(WdogdTest, PoisonedStreamCountsOneProtocolError) {
  RealClock& clock = RealClock::Instance();
  WdogdOptions options = FastOptions();
  options.policy.restart_backoff = Ms(100);
  Wdogd wdogd(clock, options);
  ASSERT_TRUE(wdogd.Start().ok());
  auto babbler = wdogd.Connect(SimProcess{});
  ASSERT_TRUE(babbler.ok());
  ASSERT_TRUE((*babbler)->Write(std::string("\xff\xff\xff\x7f""junk", 8)).ok());
  ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] { return wdogd.restart_count() > 0; }));
  EXPECT_EQ(wdogd.protocol_error_count(), 1);
  ASSERT_TRUE(wdogd.Stop().ok());
}

TEST(WdogdTest, RespawnBudgetExhaustionReboots) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  SimDisk journal(clock, injector);
  std::atomic<int> restarts{0};
  std::atomic<int> reboots{0};

  WdogdOptions options = FastOptions();
  options.policy.max_respawns = 1;
  options.journal_disk = &journal;
  Wdogd wdogd(clock, options);
  ASSERT_TRUE(wdogd.Start().ok());

  SimProcess process;
  process.restart = [&] {
    restarts.fetch_add(1);
    return Status::Ok();
  };
  process.reboot = [&] { reboots.fetch_add(1); };

  // Incarnation 1: subscribes as "flaky", goes silent, gets restarted.
  auto pipe1 = wdogd.Connect(process);
  ASSERT_TRUE(pipe1.ok());
  WdogClient client1(clock, std::move(*pipe1));
  ASSERT_TRUE(client1.Subscribe("flaky", Ms(40), Ms(500)).ok());
  ASSERT_TRUE(WaitUntil(clock, Sec(2), [&] { return restarts.load() == 1; }));

  // Incarnation 2: same name, silent again — budget (1) is spent, so the
  // ladder must reach for the big hammer instead of another restart.
  auto pipe2 = wdogd.Connect(process);
  ASSERT_TRUE(pipe2.ok());
  WdogClient client2(clock, std::move(*pipe2));
  ASSERT_TRUE(client2.Subscribe("flaky", Ms(40), Ms(500)).ok());
  ASSERT_TRUE(WaitUntil(clock, Sec(2), [&] { return reboots.load() == 1; }));
  EXPECT_EQ(restarts.load(), 1);
  EXPECT_EQ(wdogd.reboot_count(), 1);

  auto journal_records = wdogd.ReadJournal();
  ASSERT_TRUE(journal_records.ok());
  bool saw_reboot = false;
  for (const ResetRecord& record : *journal_records) {
    saw_reboot = saw_reboot || record.cause == ResetCause::kRespawnExhaustedReboot;
  }
  EXPECT_TRUE(saw_reboot);

  // A reboot wipes the slate: the name's respawn budget is fresh again.
  auto pipe3 = wdogd.Connect(process);
  ASSERT_TRUE(pipe3.ok());
  WdogClient client3(clock, std::move(*pipe3));
  ASSERT_TRUE(client3.Subscribe("flaky", Ms(40), Ms(500)).ok());
  ASSERT_TRUE(WaitUntil(clock, Sec(2), [&] { return restarts.load() == 2; }));
  EXPECT_EQ(reboots.load(), 1);
  ASSERT_TRUE(wdogd.Stop().ok());
}

TEST(WdogdTest, VoluntaryDisconnectBeatsPendingEscalation) {
  RealClock& clock = RealClock::Instance();
  std::atomic<int> restarts{0};
  WdogdOptions options = FastOptions();
  options.policy.restart_backoff = Ms(300);  // wide window for the race
  Wdogd wdogd(clock, options);
  ASSERT_TRUE(wdogd.Start().ok());

  SimProcess process;
  process.restart = [&] {
    restarts.fetch_add(1);
    return Status::Ok();
  };
  auto pipe = wdogd.Connect(process);
  ASSERT_TRUE(pipe.ok());
  WdogClient client(clock, std::move(*pipe));
  ASSERT_TRUE(client.Subscribe("leaver", Ms(40), Ms(500)).ok());

  // Go silent until the restart is pending (but still in backoff), then
  // unsubscribe: the voluntary departure must win.
  ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] {
    for (const auto& info : wdogd.Clients()) {
      if (info.restart_pending) {
        return true;
      }
    }
    return false;
  }));
  EXPECT_TRUE(client.Unsubscribe(Ms(500)).ok());
  clock.SleepFor(Ms(400));  // backoff would have fired by now
  EXPECT_EQ(restarts.load(), 0);
  EXPECT_EQ(wdogd.restart_count(), 0);
  ASSERT_TRUE(wdogd.Stop().ok());
}

// A re-subscribe renegotiates the deadline and starts a new silence episode:
// the ladder runs on the granted 2 s, not on the 20 ms first asked for.
TEST(WdogdTest, ResubscribeRenegotiatesTheDeadline) {
  RealClock& clock = RealClock::Instance();
  Wdogd wdogd(clock, FastOptions());
  ASSERT_TRUE(wdogd.Start().ok());
  auto pipe = wdogd.Connect(SimProcess{});
  ASSERT_TRUE(pipe.ok());
  Frame subscribe;
  subscribe.type = FrameType::kSubscribe;
  subscribe.name = "renegotiator";
  subscribe.deadline = Ms(20);
  std::string wire = EncodeFrame(subscribe);
  subscribe.deadline = Sec(2);
  wire += EncodeFrame(subscribe);
  ASSERT_TRUE((*pipe)->Write(wire).ok());
  ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] {
    const auto clients = wdogd.Clients();
    return clients.size() == 1 && clients[0].deadline == Sec(2);
  }));
  clock.SleepFor(Ms(200));  // ten of the first deadline, a tenth of the granted one
  EXPECT_EQ(wdogd.warn_count(), 0);
  EXPECT_EQ(wdogd.restart_count(), 0);
  ASSERT_TRUE(wdogd.Stop().ok());
}

TEST(WdogdTest, WarnFiresOncePerSilenceEpisode) {
  RealClock& clock = RealClock::Instance();
  WdogdOptions options = FastOptions();
  options.policy.restart_misses = 1000;  // far past the end of the test
  Wdogd wdogd(clock, options);
  ASSERT_TRUE(wdogd.Start().ok());
  auto pipe = wdogd.Connect(SimProcess{});
  ASSERT_TRUE(pipe.ok());
  WdogClient client(clock, std::move(*pipe));
  ASSERT_TRUE(client.Subscribe("quiet", Ms(20), Ms(500)).ok());
  clock.SleepFor(Ms(200));  // ten deadlines of silence, one episode
  EXPECT_EQ(wdogd.warn_count(), 1);
  EXPECT_EQ(wdogd.restart_count(), 0);
  EXPECT_EQ(client.warns_received(), 1);
  ASSERT_TRUE(client.Unsubscribe(Ms(500)).ok());
  ASSERT_TRUE(wdogd.Stop().ok());
}

TEST(WdogdTest, KickAfterWarnRearmsTheLadder) {
  RealClock& clock = RealClock::Instance();
  std::atomic<int> restarts{0};
  WdogdOptions options = FastOptions();
  options.policy.restart_misses = 4;  // 200 ms: well behind each warn
  Wdogd wdogd(clock, options);
  ASSERT_TRUE(wdogd.Start().ok());
  SimProcess process;
  process.restart = [&] {
    restarts.fetch_add(1);
    return Status::Ok();
  };
  auto pipe = wdogd.Connect(process);
  ASSERT_TRUE(pipe.ok());
  WdogClient client(clock, std::move(*pipe));
  ASSERT_TRUE(client.Subscribe("dozer", Ms(50), Ms(500)).ok());
  // Two silence episodes, each ended by a kick right after its warn: each
  // warns once, and neither reaches the restart rung.
  for (int episode = 1; episode <= 2; ++episode) {
    ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] { return wdogd.warn_count() == episode; }));
    ASSERT_TRUE(client.Kick().ok());
    ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] { return wdogd.kick_count() == episode; }));
  }
  EXPECT_EQ(wdogd.warn_count(), 2);
  EXPECT_EQ(wdogd.restart_count(), 0);
  EXPECT_EQ(restarts.load(), 0);
  ASSERT_TRUE(client.Unsubscribe(Ms(500)).ok());
  ASSERT_TRUE(wdogd.Stop().ok());
}

// Which rungs fire, in journal order, for a warn rung below, at, above and
// off the restart rung.
TEST(WdogdTest, RungPositionsDecideTheJournaledLadder) {
  struct Case {
    int warn_misses;
    int restart_misses;
    std::vector<std::string> causes;
  };
  const Case cases[] = {
      {1, 2, {"warn", "missed-kick-restart"}},
      {2, 2, {"missed-kick-restart"}},
      {3, 2, {"missed-kick-restart"}},
      {0, 2, {"missed-kick-restart"}},
  };
  RealClock& clock = RealClock::Instance();
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "warn_misses=" << c.warn_misses
                                    << " restart_misses=" << c.restart_misses);
    FaultInjector injector(clock);
    SimDisk journal(clock, injector);
    WdogdOptions options = FastOptions();
    options.policy.warn_misses = c.warn_misses;
    options.policy.restart_misses = c.restart_misses;
    options.journal_disk = &journal;
    Wdogd wdogd(clock, options);
    ASSERT_TRUE(wdogd.Start().ok());
    auto pipe = wdogd.Connect(SimProcess{});
    ASSERT_TRUE(pipe.ok());
    WdogClient client(clock, std::move(*pipe));
    ASSERT_TRUE(client.Subscribe("rungs", Ms(20), Ms(500)).ok());
    ASSERT_TRUE(WaitUntil(clock, Sec(2), [&] { return wdogd.restart_count() > 0; }));
    ASSERT_TRUE(wdogd.Stop().ok());  // joins the loop: every journal write is in
    auto records = wdogd.ReadJournal();
    ASSERT_TRUE(records.ok());
    std::vector<std::string> causes;
    for (const ResetRecord& record : *records) {
      causes.push_back(ResetCauseName(record.cause));
    }
    EXPECT_EQ(causes, c.causes);
  }
}

size_t ThreadCount() {
  size_t threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

// The ladder is passive: wdogd runs one thread however many clients it
// watches.
TEST(WdogdTest, SubscribersAddNoThreads) {
  RealClock& clock = RealClock::Instance();
  Wdogd wdogd(clock, FastOptions());
  ASSERT_TRUE(wdogd.Start().ok());
  const size_t before = ThreadCount();
  std::vector<std::unique_ptr<WdogClient>> clients;
  for (int i = 0; i < 8; ++i) {
    auto pipe = wdogd.Connect(SimProcess{});
    ASSERT_TRUE(pipe.ok());
    clients.push_back(std::make_unique<WdogClient>(clock, std::move(*pipe)));
    ASSERT_TRUE(clients.back()->Subscribe("sub-" + std::to_string(i), Sec(1), Ms(500)).ok());
  }
  EXPECT_EQ(wdogd.Clients().size(), 8u);
  EXPECT_EQ(ThreadCount(), before);
  for (auto& client : clients) {
    ASSERT_TRUE(client->Unsubscribe(Ms(500)).ok());
  }
  ASSERT_TRUE(wdogd.Stop().ok());
}

// ------------------------------------------------- driver supervised mode

TEST(SupervisedDriverTest, HealthyDriverKicksAndUnsubscribesOnStop) {
  RealClock& clock = RealClock::Instance();
  Wdogd wdogd(clock, FastOptions());
  ASSERT_TRUE(wdogd.Start().ok());

  auto pipe = wdogd.Connect(SimProcess{});
  ASSERT_TRUE(pipe.ok());
  WdogClient client(clock, std::move(*pipe));

  WatchdogDriver::Options driver_options;
  driver_options.shards = 2;  // liveness proof must span every shard
  WatchdogDriver driver(clock, driver_options);
  DriverSupervision supervision;
  supervision.client = &client;
  supervision.name = "healthy-driver";
  supervision.kick_interval = Ms(10);
  supervision.kick_deadline = Ms(60);
  ASSERT_TRUE(driver.SetSupervised(supervision).ok());

  CheckerOptions fast;
  fast.interval = Ms(5);
  fast.timeout = Ms(100);
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "ok-probe", "test", [] { return Status::Ok(); }, fast));
  ASSERT_TRUE(driver.Start().ok());
  EXPECT_TRUE(client.subscribed());

  EXPECT_TRUE(WaitUntil(clock, Sec(1), [&] {
    return driver.DriverMetrics().supervisor_kicks > 3;
  }));
  EXPECT_EQ(wdogd.warn_count(), 0);
  EXPECT_EQ(wdogd.restart_count(), 0);

  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_TRUE(metrics.supervised);
  EXPECT_GT(metrics.supervisor_kicks, 3);

  ASSERT_TRUE(driver.Stop().ok());
  // Stop() unsubscribed: the supervisor saw a clean departure, not a crash.
  EXPECT_TRUE(WaitUntil(clock, Ms(500), [&] { return wdogd.Clients().empty(); }));
  EXPECT_EQ(wdogd.crash_count(), 0);
  EXPECT_EQ(wdogd.restart_count(), 0);
  ASSERT_TRUE(wdogd.Stop().ok());
}

TEST(SupervisedDriverTest, WedgedExecutorWithholdsKicksUntilEscalation) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  std::atomic<int> restarts{0};

  WdogdOptions options = FastOptions();
  Wdogd wdogd(clock, options);
  ASSERT_TRUE(wdogd.Start().ok());

  SimProcess process;
  process.restart = [&] {
    restarts.fetch_add(1);
    return Status::Ok();
  };
  auto pipe = wdogd.Connect(process);
  ASSERT_TRUE(pipe.ok());
  WdogClient client(clock, std::move(*pipe));

  WatchdogDriver::Options driver_options;
  driver_options.shards = 2;  // a wedge on either shard must silence the kicks
  driver_options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, driver_options);
  DriverSupervision supervision;
  supervision.client = &client;
  supervision.name = "wedged-driver";
  supervision.kick_interval = Ms(10);
  supervision.kick_deadline = Ms(60);

  // The probe does "real work" through a fault site — the §3.3 silent
  // failure: once it hangs, the driver must not keep vouching for the
  // process it can no longer prove alive.
  Status registered = CheckerBuilder("gated-probe")
                          .Component("test")
                          .Interval(Ms(5))
                          .Deadline(Sec(5))
                          .Probe([&injector] { return injector.Act("test.probe.io"); })
                          .Supervised(supervision)
                          .RegisterWith(driver);
  ASSERT_TRUE(registered.ok()) << registered.ToString();
  ASSERT_TRUE(driver.Start().ok());

  // Healthy first: kicks flow.
  ASSERT_TRUE(WaitUntil(clock, Sec(1), [&] {
    return driver.DriverMetrics().supervisor_kicks > 2;
  }));

  // Wedge the probe. Kicks must stop (withheld, not just failing) and the
  // supervisor must walk the ladder to a restart.
  FaultSpec hang;
  hang.id = "wedge";
  hang.site_pattern = "test.probe.io";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);

  ASSERT_TRUE(WaitUntil(clock, Sec(3), [&] { return restarts.load() > 0; }));
  EXPECT_GT(driver.DriverMetrics().supervisor_kicks_withheld, 0);
  EXPECT_GE(wdogd.warn_count(), 1);
  EXPECT_GE(wdogd.restart_count(), 1);

  injector.ClearAll();
  ASSERT_TRUE(driver.Stop().ok());
  ASSERT_TRUE(wdogd.Stop().ok());
}

TEST(SupervisedDriverTest, HandshakeFailureFailsStart) {
  RealClock& clock = RealClock::Instance();
  // A pipe whose supervisor end is already gone: subscribe can only fail.
  PipePair pair = CreatePipePair(clock);
  pair.first->Close();
  WdogClient client(clock, std::move(pair.second));

  WatchdogDriver driver(clock);
  DriverSupervision supervision;
  supervision.client = &client;
  supervision.handshake_timeout = Ms(100);
  ASSERT_TRUE(driver.SetSupervised(supervision).ok());
  CheckerOptions fast;
  fast.interval = Ms(5);
  fast.timeout = Ms(100);
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "p", "test", [] { return Status::Ok(); }, fast));

  const Status started = driver.Start();
  EXPECT_FALSE(started.ok());
  EXPECT_FALSE(driver.running());
  // A failed supervised start is not "stopped": the caller may fix the
  // supervisor connection and start again.
  ASSERT_TRUE(driver.SetSupervised(DriverSupervision{}).ok());
  EXPECT_TRUE(driver.Start().ok());
  EXPECT_TRUE(driver.Stop().ok());
}

TEST(SupervisedDriverTest, SetSupervisedRejectsBadArguments) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver driver(clock);
  EXPECT_EQ(driver.SetSupervised(DriverSupervision{}).code(), StatusCode::kOk);

  CheckerOptions fast;
  fast.interval = Ms(5);
  fast.timeout = Ms(100);
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "p", "test", [] { return Status::Ok(); }, fast));
  ASSERT_TRUE(driver.Start().ok());
  EXPECT_EQ(driver.SetSupervised(DriverSupervision{}).code(),
            StatusCode::kFailedPrecondition);  // not while running
  EXPECT_TRUE(driver.Stop().ok());
}

}  // namespace
}  // namespace wdg
