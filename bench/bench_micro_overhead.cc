// Micro-costs backing Figure 1's "no significant cost" claim, measured with
// google-benchmark: hook firing (armed/unarmed), context synchronization,
// fault-site gating, the simulated network's round trip, and the
// AutoWatchdog generation pipeline itself.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/autowd/autowatchdog.h"
#include "src/common/checksum.h"
#include "src/common/strings.h"
#include "src/fault/fault_injector.h"
#include "src/kvs/compaction.h"
#include "src/kvs/ir_model.h"
#include "src/kvs/memtable.h"
#include "src/kvs/sstable.h"
#include "src/kvs/wal.h"
#include "src/sim/sim_net.h"
#include "src/watchdog/context.h"

namespace {

// Set when a timed op returned an error; main() then exits 1. A table path
// that starts failing fast would otherwise pass a smoke run (which gates on
// the exit status) and even read as faster.
std::atomic<bool> g_op_failed{false};

// Ends the benchmark with an error when `status` is not OK; returns true then.
bool Failed(benchmark::State& state, const wdg::Status& status) {
  if (status.ok()) {
    return false;
  }
  g_op_failed.store(true);
  state.SkipWithError(status.ToString().c_str());
  return true;
}

// The inert hook: the cost every instrumented site pays when no checker is
// armed — the number that must be ~zero for pervasive instrumentation.
void BM_HookFire_Unarmed(benchmark::State& state) {
  wdg::HookSite site("kvs.flusher.write");
  int64_t sink = 0;
  for (auto _ : state) {
    site.Fire([&](wdg::CheckContext&) { ++sink; });
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_HookFire_Unarmed);

// The armed hook, Context API v2: typed keys interned once, the two writes
// stage into the thread-local batch, MarkReady claims both seqlock cells,
// stores and publishes them. This is the production hook-site code path.
void BM_HookFire_Armed(benchmark::State& state) {
  static const auto kFile = wdg::ContextKey<std::string>::Of("bench.file");
  static const auto kEntries = wdg::ContextKey<int64_t>::Of("bench.entries");
  wdg::HookSite site("kvs.flusher.write");
  wdg::CheckContext ctx("flush_ctx");
  site.Arm(&ctx);
  int64_t i = 0;
  for (auto _ : state) {
    site.Fire([&](wdg::CheckContext& c) {
      c.Set(kFile, "/sst/000042.sst");
      c.Set(kEntries, ++i);
      c.MarkReady(i);
    });
  }
}
BENCHMARK(BM_HookFire_Armed);

// Concurrent hook sites on DIFFERENT keys of one context: each flush claims
// only its own cells, so threads never share a lock.
void BM_HookFire_Armed_Contended(benchmark::State& state) {
  static wdg::CheckContext ctx("contended_ctx");
  static const auto kKeys = [] {
    std::vector<wdg::ContextKey<int64_t>> keys;
    for (int t = 0; t < 8; ++t) {
      keys.push_back(wdg::ContextKey<int64_t>::Of(wdg::StrFormat("bench.t%d", t)));
    }
    return keys;
  }();
  const auto& key = kKeys[state.thread_index() % kKeys.size()];
  int64_t i = 0;
  for (auto _ : state) {
    ctx.Set(key, ++i);
    ctx.MarkReady(i);
  }
}
BENCHMARK(BM_HookFire_Armed_Contended)->Threads(4);

// The dominant hook shape in the system models: ONE value then MarkReady.
// The same flush as every batch, at its smallest: one claim-CAS, the payload
// stores and one release-store publish.
void BM_HookFire_Armed_SingleValue(benchmark::State& state) {
  static const auto kSeq = wdg::ContextKey<int64_t>::Of("bench.single.seq");
  wdg::HookSite site("kvs.listener.accept");
  wdg::CheckContext ctx("accept_ctx");
  site.Arm(&ctx);
  int64_t i = 0;
  for (auto _ : state) {
    site.Fire([&](wdg::CheckContext& c) {
      c.Set(kSeq, ++i);
      c.MarkReady(i);
    });
  }
}
BENCHMARK(BM_HookFire_Armed_SingleValue);

void BM_ContextSnapshot(benchmark::State& state) {
  wdg::CheckContext ctx("c");
  for (int i = 0; i < 8; ++i) {
    ctx.Set(wdg::ContextKey<std::string>::Of(wdg::StrFormat("key%d", i)), "some value");
  }
  ctx.MarkReady(1);
  for (auto _ : state) {
    auto snapshot = ctx.Snapshot();
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_ContextSnapshot);

// The checker-side cold path the lock-free read rebuild targets: a full
// consistent snapshot (epoch + all populated slots) taking no lock: one
// optimistic scan validated by the seq fingerprint.
void BM_ContextSnapshotConsistent(benchmark::State& state) {
  wdg::CheckContext ctx("c");
  for (int i = 0; i < 8; ++i) {
    ctx.Set(wdg::ContextKey<std::string>::Of(wdg::StrFormat("snapc.key%d", i)), "some value");
  }
  ctx.MarkReady(1);
  for (auto _ : state) {
    auto snapshot = ctx.SnapshotConsistent();
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_ContextSnapshotConsistent);

// Typed point-read on the checker side: slot index -> seqlock-validated
// atomic-word copy, no locks on the stable path.
void BM_ContextGet_TypedKey(benchmark::State& state) {
  static const auto kEntries = wdg::ContextKey<int64_t>::Of("bench.get.entries");
  wdg::CheckContext ctx("c");
  ctx.Set(kEntries, 42);
  ctx.MarkReady(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Get(kEntries));
  }
}
BENCHMARK(BM_ContextGet_TypedKey);

// Name-keyed read (generated-checker cold start before keys are cached):
// lock-free registry probe + the same seqlock cell read.
void BM_ContextGet_ByName(benchmark::State& state) {
  static const auto kByName = wdg::ContextKey<int64_t>::Of("bench.byname.entries");
  wdg::CheckContext ctx("c");
  ctx.Set(kByName, 42);
  ctx.MarkReady(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Get<int64_t>("bench.byname.entries"));
  }
}
BENCHMARK(BM_ContextGet_ByName);

// Reader/writer mix on one context: 3 reader threads point-read a key that
// a 4th thread keeps republishing as single-value batches.
void BM_ContextGet_ContendedWithWriter(benchmark::State& state) {
  static wdg::CheckContext ctx("rw_ctx");
  static const auto kHot = wdg::ContextKey<int64_t>::Of("bench.rw.hot");
  if (state.thread_index() == 0) {
    int64_t i = 0;
    for (auto _ : state) {
      ctx.Set(kHot, ++i);
      ctx.MarkReady(i);
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(ctx.Get(kHot));
    }
  }
}
BENCHMARK(BM_ContextGet_ContendedWithWriter)->Threads(4);

// Fault-site gate on the hot path with no faults active.
void BM_FaultSite_NoFault(benchmark::State& state) {
  wdg::FaultInjector injector(wdg::RealClock::Instance());
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.OnSite("disk.write"));
  }
}
BENCHMARK(BM_FaultSite_NoFault);

// Voluntary context switches of the calling thread so far: one per wake-up
// from a blocking wait.
int64_t VoluntarySwitches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nvcsw;
}

// One SimNet Call to an echo thread at 100 us latency each way: the
// substrate cost under every kvs request. The model says 200 us; the counters
// show wall time per call and how often the caller woke to get its reply.
void BM_SimNetCallRoundTrip(benchmark::State& state) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::FaultInjector injector(clock);
  wdg::NetOptions options;
  options.base_latency = wdg::Us(100);
  options.per_kb_latency = 0;
  wdg::SimNet net(clock, injector, options);
  wdg::Endpoint* client = net.CreateEndpoint("client");
  wdg::Endpoint* server = net.CreateEndpoint("server");
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    while (!stop.load()) {
      if (const auto request = server->Recv(wdg::Ms(5))) {
        (void)server->Reply(*request, request->payload);
      }
    }
  });
  const int64_t switches_before = VoluntarySwitches();
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const auto reply = client->Call("server", "echo", "ping", wdg::Sec(1));
    if (Failed(state, reply.status())) {
      break;
    }
  }
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start).count();
  const auto switches = static_cast<double>(VoluntarySwitches() - switches_before);
  stop.store(true);
  echo.join();
  state.counters["wall_us"] = benchmark::Counter(wall_us, benchmark::Counter::kAvgIterations);
  state.counters["wakeups"] = benchmark::Counter(switches, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SimNetCallRoundTrip)->UseRealTime();

// CRC32 by buffer size: 64 B is the smallest input the fold kernel takes,
// 4 KB a block, 81000 B about one SSTable as Index::Get reads it.
void BM_Crc32(benchmark::State& state) {
  const std::string block(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(wdg::Crc32(block));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(81000);

// One table of 150 x 512 B records (~79 KB), zero-latency disk.
// BM_SsTableLookup is what Index::Get pays per table whose range holds the
// key (the middle one here): one ~4 KB block read, its CRC and its walk.
// BM_SsTableValidate is the whole-table check (ReadAll + footer CRC + record
// walk) that registration, compaction and the maintenance fsck pay.
class SsTableBench {
 public:
  SsTableBench()
      : injector_(wdg::RealClock::Instance()),
        disk_(wdg::RealClock::Instance(), injector_,
              wdg::DiskOptions{.base_latency = 0, .per_kb_latency = 0}) {
    std::vector<std::pair<std::string, kvs::MemEntry>> entries;
    for (int i = 0; i < 150; ++i) {
      entries.emplace_back(wdg::StrFormat("key%04d", i),
                           kvs::MemEntry{std::string(512, 'v'), false});
    }
    status_ = kvs::SsTable::Write(disk_, kPath, entries);
  }
  static constexpr const char* kPath = "/sst/000001.sst";
  wdg::SimDisk& disk() { return disk_; }
  const wdg::Status& status() const { return status_; }

 private:
  wdg::FaultInjector injector_;
  wdg::SimDisk disk_;
  wdg::Status status_;
};

void BM_SsTableLookup(benchmark::State& state) {
  SsTableBench table;
  if (Failed(state, table.status())) {
    return;
  }
  const auto map = kvs::SsBlockMap::Build(table.disk(), SsTableBench::kPath);
  if (Failed(state, map.status())) {
    return;
  }
  const std::string key = "key0075";
  for (auto _ : state) {
    const auto found = map->Lookup(table.disk(), key);
    benchmark::DoNotOptimize(found);
    if (Failed(state, found.status())) {
      break;
    }
  }
}
BENCHMARK(BM_SsTableLookup);

void BM_SsTableValidate(benchmark::State& state) {
  SsTableBench table;
  if (Failed(state, table.status())) {
    return;
  }
  for (auto _ : state) {
    const wdg::Status status = kvs::SsTable::Validate(table.disk(), SsTableBench::kPath);
    benchmark::DoNotOptimize(status);
    if (Failed(state, status)) {
      break;
    }
  }
}
BENCHMARK(BM_SsTableValidate);

// The three table mimics and the compaction compact.merge shadows, at the
// kvs-write shape times state.range(0): a merged table of 640 x 100 B records
// (~77 KB) plus a flush table overwriting every fifth key (~15 KB), both
// registered as partitions, zero-latency disk.
class CompactionBench {
 public:
  explicit CompactionBench(int64_t scale)
      : injector_(wdg::RealClock::Instance()),
        disk_(wdg::RealClock::Instance(), injector_,
              wdg::DiskOptions{.base_latency = 0, .per_kb_latency = 0}),
        index_(disk_, memtable_),
        partitions_(disk_),
        compaction_(wdg::RealClock::Instance(), disk_, index_, partitions_, hooks_, metrics_),
        keys_(640 * scale) {
    status_ = [this]() -> wdg::Status {
      WDG_RETURN_IF_ERROR(AddTable(1));
      WDG_RETURN_IF_ERROR(AddTable(5));
      WDG_RETURN_IF_ERROR(compaction_.CompactOnce(/*force=*/true));
      return AddTable(5);
    }();
  }
  // The first error of setting the tables up, or OK.
  const wdg::Status& status() const { return status_; }
  // Flushes a table holding every `stride`-th key, as the newest table.
  wdg::Status AddTable(int64_t stride) {
    std::vector<std::pair<std::string, kvs::MemEntry>> entries;
    for (int64_t key = 0; key < keys_; key += stride) {
      entries.emplace_back(wdg::StrFormat("key%08lld", static_cast<long long>(key)),
                           kvs::MemEntry{std::string(100, static_cast<char>('a' + tables_ % 26)),
                                         false});
    }
    const std::string path =
        wdg::StrFormat("/kvs/sst/%06lld.sst", static_cast<long long>(tables_++));
    WDG_RETURN_IF_ERROR(kvs::SsTable::Write(disk_, path, entries));
    partitions_.Register(index_.AddTable(path), entries.front().first, entries.back().first);
    return wdg::Status::Ok();
  }
  kvs::CompactionManager& compaction() { return compaction_; }
  kvs::Index& index() { return index_; }
  kvs::PartitionManager& partitions() { return partitions_; }
  // In the merged table's range but not the flush table's: a Get reads one
  // block of each.
  std::string MissInNewestKey() const {
    return wdg::StrFormat("key%08lld", static_cast<long long>(keys_ / 2 + 1));
  }

 private:
  wdg::FaultInjector injector_;
  wdg::SimDisk disk_;
  kvs::Memtable memtable_;
  kvs::Index index_;
  kvs::PartitionManager partitions_;
  wdg::HookSet hooks_;
  wdg::MetricsRegistry metrics_;
  kvs::CompactionManager compaction_;
  int64_t keys_;
  int64_t tables_ = 0;
  wdg::Status status_;
};

// One compact.merge mimic run: read and verify a two-block prefix of both
// tables, merge, discard the survivors.
void BM_MergeProbe(benchmark::State& state) {
  CompactionBench bench(state.range(0));
  if (Failed(state, bench.status())) {
    return;
  }
  for (auto _ : state) {
    const wdg::Status status = bench.compaction().MergeProbe("bench");
    benchmark::DoNotOptimize(status);
    if (Failed(state, status)) {
      break;
    }
  }
}
BENCHMARK(BM_MergeProbe)->Arg(1)->Arg(10);

// One index.lookup mimic run, which is one Index::Get: a memtable miss, then
// one block of each table.
void BM_IndexGet(benchmark::State& state) {
  CompactionBench bench(state.range(0));
  if (Failed(state, bench.status())) {
    return;
  }
  const std::string key = bench.MissInNewestKey();
  for (auto _ : state) {
    const auto value = bench.index().Get(key);
    benchmark::DoNotOptimize(value);
    if (Failed(state, value.status())) {
      break;
    }
  }
}
BENCHMARK(BM_IndexGet)->Arg(1)->Arg(10);

// One kvs.partition.validate mimic run on the merged table: the whole blocks
// of one 8 KB window, CRC-checked against the index's block map, rotating
// through the table.
void BM_PartitionValidateProbe(benchmark::State& state) {
  CompactionBench bench(state.range(0));
  if (Failed(state, bench.status())) {
    return;
  }
  const std::string merged = bench.index().Tables().front();
  for (auto _ : state) {
    const wdg::Status status = bench.partitions().ValidateWindow(merged);
    benchmark::DoNotOptimize(status);
    if (Failed(state, status)) {
      break;
    }
  }
}
BENCHMARK(BM_PartitionValidateProbe)->Arg(1)->Arg(10);

// One compaction of the merged table and a fresh flush table, which leaves
// one merged table of the same size for the next iteration.
void BM_CompactOnce(benchmark::State& state) {
  CompactionBench bench(state.range(0));
  if (Failed(state, bench.status())) {
    return;
  }
  for (auto _ : state) {
    const wdg::Status status = bench.compaction().CompactOnce(/*force=*/true);
    benchmark::DoNotOptimize(status);
    state.PauseTiming();
    const wdg::Status added = status.ok() ? bench.AddTable(5) : wdg::Status::Ok();
    state.ResumeTiming();  // before any SkipWithError: it must not resume a skipped run
    if (Failed(state, status) || Failed(state, added)) {
      break;
    }
  }
}
BENCHMARK(BM_CompactOnce)->Arg(1)->Arg(10);

void BM_MemtableSet(benchmark::State& state) {
  kvs::Memtable table;
  int64_t i = 0;
  for (auto _ : state) {
    table.Set(wdg::StrFormat("key%04lld", static_cast<long long>(i++ % 1024)),
              "value-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
  }
}
BENCHMARK(BM_MemtableSet);

void BM_WalFrameRecord(benchmark::State& state) {
  const std::string record(128, 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(kvs::Wal::FrameRecord(record));
  }
}
BENCHMARK(BM_WalFrameRecord);

// The whole AutoWatchdog analysis pipeline (reduce + infer + plan) on the
// full kvs module — the offline generation cost.
void BM_AutoWatchdog_AnalyzeKvs(benchmark::State& state) {
  kvs::KvsOptions options;
  options.node_id = "kvs1";
  options.followers = {"kvs2", "kvs3"};
  const awd::Module module = kvs::DescribeIr(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(awd::Analyze(module));
  }
}
BENCHMARK(BM_AutoWatchdog_AnalyzeKvs);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return g_op_failed.load() ? 1 : 0;
}
