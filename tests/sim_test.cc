// Unit tests for the simulated disk and network.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/checksum.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_net.h"

namespace wdg {
namespace {

class SimDiskTest : public ::testing::Test {
 protected:
  SimDiskTest() : injector_(clock_), disk_(clock_, injector_, FastDisk()) {}

  static DiskOptions FastDisk() {
    DiskOptions options;
    options.base_latency = 0;
    options.per_kb_latency = 0;
    return options;
  }

  RealClock& clock_ = RealClock::Instance();
  FaultInjector injector_;
  SimDisk disk_;
};

TEST_F(SimDiskTest, CreateWriteReadRoundtrip) {
  ASSERT_TRUE(disk_.Create("/wal/log.0").ok());
  ASSERT_TRUE(disk_.Write("/wal/log.0", 0, "hello").ok());
  const auto data = disk_.ReadAll("/wal/log.0");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "hello");
}

TEST_F(SimDiskTest, WriteAtOffsetExtends) {
  ASSERT_TRUE(disk_.Create("/f").ok());
  ASSERT_TRUE(disk_.Write("/f", 3, "abc").ok());
  const auto data = disk_.ReadAll("/f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 6u);
  EXPECT_EQ(data->substr(3), "abc");
}

TEST_F(SimDiskTest, AppendAccumulates) {
  ASSERT_TRUE(disk_.Create("/f").ok());
  ASSERT_TRUE(disk_.Append("/f", "ab").ok());
  ASSERT_TRUE(disk_.Append("/f", "cd").ok());
  EXPECT_EQ(*disk_.ReadAll("/f"), "abcd");
  EXPECT_EQ(*disk_.Size("/f"), 4);
}

TEST_F(SimDiskTest, MissingFileErrors) {
  EXPECT_EQ(disk_.ReadAll("/nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(disk_.Delete("/nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(disk_.Fsync("/nope").code(), StatusCode::kNotFound);
  EXPECT_FALSE(disk_.Exists("/nope"));
}

TEST_F(SimDiskTest, DoubleCreateFails) {
  ASSERT_TRUE(disk_.Create("/f").ok());
  EXPECT_EQ(disk_.Create("/f").code(), StatusCode::kAlreadyExists);
}

TEST_F(SimDiskTest, RenameMovesContent) {
  ASSERT_TRUE(disk_.Create("/a").ok());
  ASSERT_TRUE(disk_.Append("/a", "data").ok());
  ASSERT_TRUE(disk_.Rename("/a", "/b").ok());
  EXPECT_FALSE(disk_.Exists("/a"));
  EXPECT_EQ(*disk_.ReadAll("/b"), "data");
}

TEST_F(SimDiskTest, ListByPrefix) {
  ASSERT_TRUE(disk_.Create("/sst/1").ok());
  ASSERT_TRUE(disk_.Create("/sst/2").ok());
  ASSERT_TRUE(disk_.Create("/wal/1").ok());
  const auto files = disk_.List("/sst/");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/sst/1");
}

TEST_F(SimDiskTest, DeleteReclaimsSpace) {
  ASSERT_TRUE(disk_.Create("/f").ok());
  ASSERT_TRUE(disk_.Append("/f", std::string(1000, 'x')).ok());
  EXPECT_EQ(disk_.used_bytes(), 1000);
  ASSERT_TRUE(disk_.Delete("/f").ok());
  EXPECT_EQ(disk_.used_bytes(), 0);
}

TEST_F(SimDiskTest, CapacityEnforced) {
  DiskOptions tiny = FastDisk();
  tiny.capacity_bytes = 100;
  SimDisk disk(clock_, injector_, tiny);
  ASSERT_TRUE(disk.Create("/f").ok());
  EXPECT_TRUE(disk.Append("/f", std::string(100, 'x')).ok());
  EXPECT_EQ(disk.Append("/f", "y").code(), StatusCode::kResourceExhausted);
}

TEST_F(SimDiskTest, BadRangeCorruptsReads) {
  ASSERT_TRUE(disk_.Create("/part").ok());
  const std::string payload = "all good data here";
  ASSERT_TRUE(disk_.Append("/part", payload).ok());
  const uint32_t good_crc = Crc32(payload);
  disk_.MarkBadRange("/part", 4, 4);
  const auto data = disk_.ReadAll("/part");
  ASSERT_TRUE(data.ok());
  EXPECT_NE(Crc32(*data), good_crc);
  // Outside the bad range the bytes are intact.
  EXPECT_EQ(data->substr(0, 4), payload.substr(0, 4));
  disk_.ClearBadRanges();
  EXPECT_EQ(Crc32(*disk_.ReadAll("/part")), good_crc);
}

TEST_F(SimDiskTest, InjectedWriteErrorSurfaces) {
  FaultSpec spec;
  spec.id = "werr";
  spec.site_pattern = "disk.write";
  spec.kind = FaultKind::kError;
  injector_.Inject(spec);
  ASSERT_TRUE(disk_.Create("/f").ok());
  EXPECT_EQ(disk_.Write("/f", 0, "x").code(), StatusCode::kIoError);
  injector_.ClearAll();
  EXPECT_TRUE(disk_.Write("/f", 0, "x").ok());
}

TEST_F(SimDiskTest, SilentDropLosesWriteButReportsSuccess) {
  FaultSpec spec;
  spec.id = "lost";
  spec.site_pattern = "disk.append";
  spec.kind = FaultKind::kSilentDrop;
  injector_.Inject(spec);
  ASSERT_TRUE(disk_.Create("/f").ok());
  EXPECT_TRUE(disk_.Append("/f", "vanished").ok());  // success reported...
  injector_.ClearAll();
  EXPECT_EQ(disk_.ReadAll("/f")->size(), 0u);  // ...but nothing stored
}

TEST_F(SimDiskTest, SlowFactorMultipliesLatency) {
  DiskOptions slow;
  slow.base_latency = Ms(1);
  slow.per_kb_latency = 0;
  SimDisk disk(clock_, injector_, slow);
  ASSERT_TRUE(disk.Create("/f").ok());
  disk.SetSlowFactor(20.0);  // fail-slow: 20x
  const TimeNs start = clock_.NowNs();
  ASSERT_TRUE(disk.Append("/f", "x").ok());
  EXPECT_GE(clock_.NowNs() - start, Ms(15));
}

TEST_F(SimDiskTest, ScratchNamespaceIsolatedAndPurgeable) {
  const std::string scratch = SimDisk::ScratchPath("flush_checker", "probe.dat");
  EXPECT_TRUE(SimDisk::IsScratchPath(scratch));
  EXPECT_FALSE(SimDisk::IsScratchPath("/wal/log.0"));
  ASSERT_TRUE(disk_.Create(scratch).ok());
  ASSERT_TRUE(disk_.Append(scratch, "checker data").ok());
  ASSERT_TRUE(disk_.Create("/real").ok());
  disk_.PurgeScratch("flush_checker");
  EXPECT_FALSE(disk_.Exists(scratch));
  EXPECT_TRUE(disk_.Exists("/real"));
}

class SimNetTest : public ::testing::Test {
 protected:
  SimNetTest() : injector_(clock_), net_(clock_, injector_, FastNet()) {}

  static NetOptions FastNet() {
    NetOptions options;
    options.base_latency = Us(10);
    options.per_kb_latency = 0;
    return options;
  }

  RealClock& clock_ = RealClock::Instance();
  FaultInjector injector_;
  SimNet net_;
};

TEST_F(SimNetTest, SendRecvRoundtrip) {
  Endpoint* a = net_.CreateEndpoint("a");
  Endpoint* b = net_.CreateEndpoint("b");
  ASSERT_TRUE(a->Send("b", "ping", "payload").ok());
  const auto msg = b->Recv(Ms(200));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->src, "a");
  EXPECT_EQ(msg->type, "ping");
  EXPECT_EQ(msg->payload, "payload");
}

TEST_F(SimNetTest, RecvTimesOutOnSilence) {
  Endpoint* a = net_.CreateEndpoint("a");
  EXPECT_FALSE(a->Recv(Ms(20)).has_value());
}

TEST_F(SimNetTest, SendToUnknownNodeFails) {
  Endpoint* a = net_.CreateEndpoint("a");
  EXPECT_EQ(a->Send("ghost", "t", "p").code(), StatusCode::kUnavailable);
}

TEST_F(SimNetTest, CallGetsReply) {
  Endpoint* client = net_.CreateEndpoint("client");
  Endpoint* server = net_.CreateEndpoint("server");
  std::thread server_thread([&] {
    const auto req = server->Recv(Sec(5));
    ASSERT_TRUE(req.has_value());
    ASSERT_TRUE(server->Reply(*req, "pong:" + req->payload).ok());
  });
  const auto reply = client->Call("server", "echo", "hi", Sec(5));
  server_thread.join();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "pong:hi");
}

TEST_F(SimNetTest, CallTimesOutWithoutServer) {
  Endpoint* client = net_.CreateEndpoint("client");
  net_.CreateEndpoint("mute");
  const auto reply = client->Call("mute", "echo", "hi", Ms(30));
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
}

TEST_F(SimNetTest, PartitionDropsSilently) {
  Endpoint* a = net_.CreateEndpoint("a");
  Endpoint* b = net_.CreateEndpoint("b");
  net_.Partition("a", "b");
  EXPECT_TRUE(net_.IsPartitioned("b", "a"));
  EXPECT_TRUE(a->Send("b", "t", "p").ok());  // vanishes like a dropped packet
  EXPECT_FALSE(b->Recv(Ms(20)).has_value());
  net_.Heal("a", "b");
  EXPECT_TRUE(a->Send("b", "t", "p2").ok());
  const auto msg = b->Recv(Ms(200));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "p2");
}

TEST_F(SimNetTest, DropProbabilityLosesSomeMessages) {
  Endpoint* a = net_.CreateEndpoint("a");
  Endpoint* b = net_.CreateEndpoint("b");
  net_.set_drop_probability(0.5);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(a->Send("b", "t", "x").ok());
  }
  net_.set_drop_probability(0.0);
  int received = 0;
  while (b->Recv(Ms(10)).has_value()) {
    ++received;
  }
  EXPECT_GT(received, 40);
  EXPECT_LT(received, 160);
}

TEST_F(SimNetTest, InjectedSendHangBlocksSender) {
  Endpoint* a = net_.CreateEndpoint("a");
  net_.CreateEndpoint("b");
  FaultSpec spec;
  spec.id = "linkhang";
  spec.site_pattern = "net.send.b";
  spec.kind = FaultKind::kHang;
  injector_.Inject(spec);
  std::atomic<bool> sent{false};
  std::thread sender([&] {
    (void)a->Send("b", "t", "p");  // blocks — the ZK-2201 shape
    sent = true;
  });
  while (injector_.parked_thread_count() == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(sent.load());
  injector_.ClearAll();
  sender.join();
}

TEST_F(SimNetTest, CorruptionMangledInFlight) {
  Endpoint* a = net_.CreateEndpoint("a");
  Endpoint* b = net_.CreateEndpoint("b");
  FaultSpec spec;
  spec.id = "bitrot";
  spec.site_pattern = "net.send.b";
  spec.kind = FaultKind::kCorruption;
  injector_.Inject(spec);
  ASSERT_TRUE(a->Send("b", "t", "important payload").ok());
  const auto msg = b->Recv(Ms(200));
  ASSERT_TRUE(msg.has_value());
  EXPECT_NE(msg->payload, "important payload");
}

TEST_F(SimNetTest, EndpointIdempotentCreation) {
  EXPECT_EQ(net_.CreateEndpoint("x"), net_.CreateEndpoint("x"));
  EXPECT_EQ(net_.GetEndpoint("x"), net_.CreateEndpoint("x"));
  EXPECT_EQ(net_.GetEndpoint("absent"), nullptr);
}

TEST_F(SimNetTest, LatencyDelaysDelivery) {
  NetOptions slow;
  slow.base_latency = Ms(30);
  SimNet net(clock_, injector_, slow);
  Endpoint* a = net.CreateEndpoint("a");
  Endpoint* b = net.CreateEndpoint("b");
  ASSERT_TRUE(a->Send("b", "t", "p").ok());
  EXPECT_FALSE(b->Recv(Ms(5)).has_value());  // not yet deliverable
  EXPECT_TRUE(b->Recv(Ms(200)).has_value());
}

// Voluntary context switches of the calling thread so far: each wake-up
// from a blocking wait is one.
int64_t VoluntarySwitches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nvcsw;
}

// perfbench's latency, so the wake-up bounds below measure its shape.
NetOptions HundredMicros() {
  NetOptions options;
  options.base_latency = Us(100);
  options.per_kb_latency = 0;
  return options;
}

// Answers every request on `server` with its own payload until `stop`.
void Echo(Endpoint* server, const std::atomic<bool>& stop) {
  while (!stop.load()) {
    if (const auto request = server->Recv(Ms(5))) {
      ASSERT_TRUE(server->Reply(*request, request->payload).ok());
    }
  }
}

TEST_F(SimNetTest, BlockedReceiverWakesOncePerMessage) {
  // Waking at send time finds the message not yet due and sleeps again:
  // two wake-ups per message. The receiver must wake once, when it is due.
  SimNet net(clock_, injector_, HundredMicros());
  Endpoint* a = net.CreateEndpoint("a");
  Endpoint* b = net.CreateEndpoint("b");
  constexpr int kMessages = 200;
  int received = 0;
  int64_t switches = 0;
  std::thread receiver([&] {
    const int64_t before = VoluntarySwitches();
    while (received < kMessages && b->Recv(Sec(2)).has_value()) {
      ++received;
    }
    switches = VoluntarySwitches() - before;
  });
  for (int i = 0; i < kMessages; ++i) {
    clock_.SleepFor(Ms(1));
    EXPECT_TRUE(a->Send("b", "t", "p").ok());
  }
  receiver.join();
  ASSERT_EQ(received, kMessages);
  EXPECT_LE(static_cast<double>(switches) / kMessages, 1.25) << switches << " wake-ups";
}

TEST_F(SimNetTest, CallerWakesOncePerReply) {
  SimNet net(clock_, injector_, HundredMicros());
  Endpoint* client = net.CreateEndpoint("client");
  Endpoint* server = net.CreateEndpoint("server");
  std::atomic<bool> stop{false};
  std::thread echo(Echo, server, std::cref(stop));
  constexpr int kCalls = 200;
  int64_t switches = 0;
  for (int i = 0; i < kCalls; ++i) {
    const int64_t before = VoluntarySwitches();
    const auto reply = client->Call("server", "echo", "hi", Sec(2));
    switches += VoluntarySwitches() - before;
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  stop = true;
  echo.join();
  EXPECT_LE(static_cast<double>(switches) / kCalls, 1.25) << switches << " wake-ups";
}

// Sends `count` messages to `to`, each carrying its send time; `before_send`
// runs first, so a test can line a send up against a receiver.
void SendStamped(Clock& clock, Endpoint* from, const NodeId& to, int count,
                 const std::function<void(int)>& before_send) {
  for (int i = 0; i < count; ++i) {
    before_send(i);
    EXPECT_TRUE(from->Send(to, "t", std::to_string(clock.NowNs())).ok());
  }
}

TEST_F(SimNetTest, NeverDeliversEarly) {
  SimNet net(clock_, injector_, HundredMicros());
  Endpoint* a = net.CreateEndpoint("a");
  Endpoint* b = net.CreateEndpoint("b");
  constexpr int kMessages = 300;
  std::atomic<int> early{0};
  std::atomic<int> received{0};
  const auto receive = [&](int want) {
    while (received.load() < want) {
      const auto msg = b->Recv(Ms(20));
      if (!msg.has_value()) {
        continue;
      }
      if (clock_.NowNs() < std::stoll(msg->payload) + Us(100)) {
        early.fetch_add(1);
      }
      received.fetch_add(1);
    }
  };

  // Each send lines up with a receiver that is just calling Recv, so the
  // message races the waiter's scan and park.
  std::atomic<int> parking{-1};
  std::thread racer([&] {
    for (int i = 0; i < kMessages; ++i) {
      parking.store(i);
      receive(i + 1);
    }
  });
  SendStamped(clock_, a, "b", kMessages, [&](int i) {
    while (parking.load() != i) {
      std::this_thread::yield();
    }
  });
  racer.join();
  EXPECT_EQ(received.load(), kMessages);

  // Two waiters on one endpoint, messages at varied spacing.
  received = 0;
  std::thread first(receive, 2 * kMessages);
  std::thread second(receive, 2 * kMessages);
  SendStamped(clock_, a, "b", 2 * kMessages, [&](int i) {
    const TimeNs until = clock_.NowNs() + Us(i % 7 * 30);
    while (clock_.NowNs() < until) {
    }
  });
  first.join();
  second.join();
  EXPECT_EQ(received.load(), 2 * kMessages);
  EXPECT_EQ(early.load(), 0);
  EXPECT_EQ(b->PendingCount(), 0u);
}

TEST_F(SimNetTest, ConcurrentCallsOnOneEndpointAllComplete) {
  // The mimic executors share one endpoint per source: concurrent Calls
  // through it must each get their own reply.
  SimNet net(clock_, injector_, HundredMicros());
  Endpoint* client = net.CreateEndpoint("client");
  Endpoint* server = net.CreateEndpoint("server");
  std::atomic<bool> stop{false};
  std::thread echo(Echo, server, std::cref(stop));
  constexpr int kThreads = 4;
  constexpr int kCalls = 50;
  std::atomic<int> completed{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        const std::string payload = std::to_string(t) + ":" + std::to_string(i);
        const auto reply = client->Call("server", "echo", payload, Sec(2));
        if (reply.ok() && *reply == payload) {
          completed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  stop = true;
  echo.join();
  EXPECT_EQ(completed.load(), kThreads * kCalls);
  EXPECT_EQ(client->PendingCount(), 0u);
  EXPECT_EQ(net.metrics().GetCounter("net.replies_orphaned")->Value(), 0);
}

TEST_F(SimNetTest, LateReplyIsDroppedAndLeavesLaterCallsQuiet) {
  // A reply that comes after its Call gave up would sit in the inbox for
  // good, already due, and make every later wait on the endpoint poll.
  SimNet net(clock_, injector_, HundredMicros());
  Endpoint* client = net.CreateEndpoint("client");
  Endpoint* server = net.CreateEndpoint("server");
  std::thread server_thread([&] {
    for (const DurationNs delay : {Ms(30), Ms(2)}) {
      const auto request = server->Recv(Sec(2));
      ASSERT_TRUE(request.has_value());
      clock_.SleepFor(delay);
      ASSERT_TRUE(server->Reply(*request, "late").ok());
    }
  });
  EXPECT_EQ(client->Call("server", "echo", "1", Ms(10)).status().code(), StatusCode::kTimeout);
  clock_.SleepFor(Ms(40));  // the 30 ms reply has come and is due
  EXPECT_EQ(client->PendingCount(), 0u);
  EXPECT_EQ(net.metrics().GetCounter("net.replies_orphaned")->Value(), 1);

  const int64_t before = VoluntarySwitches();
  // Answered 2 ms late: inside one 5 ms park, so one wake-up for the reply.
  const auto reply = client->Call("server", "echo", "2", Sec(2));
  const int64_t switches = VoluntarySwitches() - before;
  server_thread.join();
  ASSERT_TRUE(reply.ok());
  EXPECT_LE(switches, 2);
}

TEST_F(SimNetTest, ReplyInFlightWhenCallGivesUpIsDropped) {
  // The reply is sent while the Call still waits but falls due after it
  // gave up: it must not stay behind in the inbox either.
  NetOptions slow;
  slow.base_latency = Ms(30);
  slow.per_kb_latency = 0;
  SimNet net(clock_, injector_, slow);
  Endpoint* client = net.CreateEndpoint("client");
  Endpoint* server = net.CreateEndpoint("server");
  std::thread server_thread([&] {
    const auto request = server->Recv(Sec(2));
    ASSERT_TRUE(request.has_value());
    ASSERT_TRUE(server->Reply(*request, "pong").ok());  // due ~60 ms after the call
  });
  EXPECT_EQ(client->Call("server", "echo", "hi", Ms(45)).status().code(), StatusCode::kTimeout);
  server_thread.join();
  EXPECT_EQ(client->PendingCount(), 0u);
  EXPECT_EQ(net.metrics().GetCounter("net.replies_orphaned")->Value(), 1);
}

}  // namespace
}  // namespace wdg
