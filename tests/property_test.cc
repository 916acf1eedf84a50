// Property-based tests (parameterized gtest): invariants of the fault
// injector, WAL recovery, SSTable integrity, the compaction merge against a
// reference, CRC detection, the reducer, the bounded queue, and the wdogd
// frame reader, swept over randomized inputs and parameter grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "src/common/checksum.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/fault/fault_injector.h"
#include "src/ir/analysis.h"
#include "src/autowd/reduce.h"
#include "src/kvs/coding.h"
#include "src/kvs/compaction.h"
#include "src/kvs/index.h"
#include "src/kvs/sstable.h"
#include "src/kvs/wal.h"
#include "src/sim/sim_disk.h"
#include "src/supervisor/protocol.h"

namespace wdg {
namespace {

// ----------------------------------------------------- fault kind contracts

class FaultKindContract : public ::testing::TestWithParam<FaultKind> {};

TEST_P(FaultKindContract, BehavesPerContract) {
  const FaultKind kind = GetParam();
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec spec;
  spec.id = "f";
  spec.site_pattern = "op";
  spec.kind = kind;
  spec.delay = Ms(20);
  injector.Inject(spec);

  if (kind == FaultKind::kHang || kind == FaultKind::kBusyLoop) {
    // Blocking kinds: thread parks until removal; never returns an error.
    std::atomic<bool> done{false};
    std::thread blocked([&] {
      EXPECT_TRUE(injector.Act("op").ok());
      done = true;
    });
    while (injector.parked_thread_count() == 0) {
      std::this_thread::yield();
    }
    EXPECT_FALSE(done.load());
    injector.ClearAll();
    blocked.join();
    EXPECT_TRUE(done.load());
    return;
  }

  std::string payload = "payload-bytes-original";
  const std::string original = payload;
  bool dropped = false;
  const TimeNs start = clock.NowNs();
  const Status status = injector.Act("op", &payload, &dropped);
  const DurationNs took = clock.NowNs() - start;

  switch (kind) {
    case FaultKind::kDelay:
      EXPECT_TRUE(status.ok());
      EXPECT_GE(took, Ms(15));
      EXPECT_EQ(payload, original);
      EXPECT_FALSE(dropped);
      break;
    case FaultKind::kError:
      EXPECT_FALSE(status.ok());
      EXPECT_EQ(payload, original);  // errors never silently mutate data
      EXPECT_FALSE(dropped);
      break;
    case FaultKind::kCorruption:
      EXPECT_TRUE(status.ok());      // corruption is silent
      EXPECT_NE(payload, original);
      EXPECT_EQ(payload.size(), original.size());  // same length, wrong bits
      EXPECT_FALSE(dropped);
      break;
    case FaultKind::kSilentDrop:
      EXPECT_TRUE(status.ok());
      EXPECT_TRUE(dropped);
      break;
    default:
      FAIL() << "unhandled kind";
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FaultKindContract,
                         ::testing::Values(FaultKind::kDelay, FaultKind::kHang,
                                           FaultKind::kError, FaultKind::kCorruption,
                                           FaultKind::kSilentDrop, FaultKind::kBusyLoop),
                         [](const auto& param_info) { return FaultKindName(param_info.param); });

// ------------------------------------------------------------ WAL recovery

class WalRecoveryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalRecoveryProperty, RecoveredRecordsAreAnIntactPrefix) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  SimDisk disk(clock, injector, DiskOptions{.base_latency = 0, .per_kb_latency = 0});
  Rng rng(GetParam());

  kvs::Wal wal(disk, "/wal");
  ASSERT_TRUE(wal.Open().ok());
  std::vector<std::string> written;
  const int count = static_cast<int>(rng.Uniform(1, 20));
  for (int i = 0; i < count; ++i) {
    std::string record;
    const int len = static_cast<int>(rng.Uniform(0, 200));
    for (int b = 0; b < len; ++b) {
      record.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    ASSERT_TRUE(wal.Append(record).ok());
    written.push_back(std::move(record));
  }

  // Property 1: clean recovery returns exactly what was written.
  {
    const auto recovery = wal.Recover();
    ASSERT_TRUE(recovery.ok());
    EXPECT_EQ(recovery->records, written);
    EXPECT_EQ(recovery->corrupt_tail_bytes, 0);
  }

  // Property 2: corrupt one random byte; recovery yields an intact PREFIX of
  // the written records (never a mangled or reordered record).
  const auto size = disk.Size("/wal");
  ASSERT_TRUE(size.ok());
  const int64_t flip_at = rng.Uniform(0, *size - 1);
  const auto byte = disk.Read("/wal", flip_at, 1);
  ASSERT_TRUE(byte.ok());
  std::string flipped = *byte;
  flipped[0] = static_cast<char>(flipped[0] ^ 0x20);
  ASSERT_TRUE(disk.Write("/wal", flip_at, flipped).ok());

  const auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  ASSERT_LE(recovery->records.size(), written.size());
  for (size_t i = 0; i < recovery->records.size(); ++i) {
    EXPECT_EQ(recovery->records[i], written[i]) << "record " << i << " not intact";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalRecoveryProperty, ::testing::Range<uint64_t>(1, 13));

// --------------------------------------------------------- SSTable integrity

class SsTableIntegrityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SsTableIntegrityProperty, RoundtripAndAnyFlipDetected) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  SimDisk disk(clock, injector, DiskOptions{.base_latency = 0, .per_kb_latency = 0});
  Rng rng(GetParam());

  std::vector<std::pair<std::string, kvs::MemEntry>> entries;
  const int count = static_cast<int>(rng.Uniform(1, 30));
  std::set<std::string> keys;
  for (int i = 0; i < count; ++i) {
    const std::string key = StrFormat("key-%03lld", static_cast<long long>(rng.Uniform(0, 999)));
    if (!keys.insert(key).second) {
      continue;
    }
    kvs::MemEntry entry;
    entry.tombstone = rng.Bernoulli(0.2);
    if (!entry.tombstone) {
      entry.value = std::string(static_cast<size_t>(rng.Uniform(0, 64)), 'v');
    }
    entries.emplace_back(key, std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  ASSERT_TRUE(kvs::SsTable::Write(disk, "/t", entries).ok());

  // Property 1: the merge reader returns exactly what was written.
  auto run = kvs::SsRun::Read(disk, "/t");
  ASSERT_TRUE(run.ok());
  kvs::SsMerge merge(std::span<const kvs::SsRun>(&*run, 1));
  size_t read = 0;
  for (kvs::SsRecord record; merge.Next(record); ++read) {
    ASSERT_LT(read, entries.size());
    EXPECT_EQ(record.key, entries[read].first);
    EXPECT_EQ(record.value, entries[read].second.value);
    EXPECT_EQ(record.tombstone, entries[read].second.tombstone);
  }
  EXPECT_EQ(read, entries.size());

  // Property 2: flipping any single random byte makes every whole-table
  // reader return CORRUPTION, as sstable.h promises; a block map built
  // before the flip fails the lookup that reads the flipped block and
  // returns the written value when the flip missed it (the footer).
  const auto size = disk.Size("/t");
  ASSERT_TRUE(size.ok());
  const auto map = kvs::SsBlockMap::Build(disk, "/t");
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->blocks().size(), 1u);  // < 30 records of < 80 bytes
  const int64_t body_size = static_cast<int64_t>(map->blocks()[0].size);
  const std::string probe_key = entries.front().first;
  for (int trial = 0; trial < 5; ++trial) {
    const int64_t at = rng.Uniform(0, *size - 1);
    disk.MarkBadRange("/t", at, 1);
    EXPECT_EQ(kvs::SsTable::Validate(disk, "/t").code(), StatusCode::kCorruption)
        << "Validate: flip at offset " << at << " undetected";
    EXPECT_EQ(kvs::SsRun::Read(disk, "/t").status().code(), StatusCode::kCorruption)
        << "SsRun::Read: flip at offset " << at << " undetected";
    EXPECT_EQ(kvs::SsBlockMap::Build(disk, "/t").status().code(), StatusCode::kCorruption)
        << "SsBlockMap::Build: flip at offset " << at << " undetected";
    const auto lookup = map->Lookup(disk, probe_key);
    if (at < body_size) {
      EXPECT_EQ(lookup.status().code(), StatusCode::kCorruption)
          << "Lookup: flip at offset " << at << " undetected";
    } else {
      ASSERT_TRUE(lookup.ok()) << "Lookup: footer flip at offset " << at;
      EXPECT_EQ((*lookup)->value, entries.front().second.value);
    }
    disk.ClearBadRanges();
    EXPECT_TRUE(kvs::SsTable::Validate(disk, "/t").ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsTableIntegrityProperty, ::testing::Range<uint64_t>(1, 13));

// ------------------------------------------------- SSTable mutation, indexed

// A multi-block table, damaged by flipped bytes, a cut, or both, either after
// the index registered it (Gets verify only the blocks they read) or before
// (registration's whole-table check fails). Either way every Get of every key
// returns the key's written value or CORRUPTION: never another value, and
// never a read past a buffer (the UBSan leg runs this suite).
class SsTableMutationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SsTableMutationProperty, EveryGetReturnsTheWrittenValueOrCorruption) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  SimDisk disk(clock, injector, DiskOptions{.base_latency = 0, .per_kb_latency = 0});
  Rng rng(GetParam());

  std::vector<std::pair<std::string, kvs::MemEntry>> entries;
  const int64_t count = rng.Uniform(50, 400);
  for (int64_t i = 0; i < count; ++i) {
    kvs::MemEntry entry;
    entry.tombstone = rng.Bernoulli(0.1);
    if (!entry.tombstone) {
      entry.value.resize(static_cast<size_t>(rng.Uniform(0, 200)));
      for (char& c : entry.value) {
        c = static_cast<char>(rng.Uniform(0, 255));
      }
    }
    entries.emplace_back(StrFormat("key-%05lld", static_cast<long long>(i * 3)), std::move(entry));
  }
  ASSERT_TRUE(kvs::SsTable::Write(disk, "/t", entries).ok());
  const auto written = disk.ReadAll("/t");
  ASSERT_TRUE(written.ok());

  for (const bool before_registration : {false, true}) {
    std::string damaged = *written;
    const int64_t kind = rng.Uniform(0, 2);  // 0 flips, 1 a cut, 2 both
    if (kind != 1) {
      for (int64_t flips = rng.Uniform(1, 4); flips > 0; --flips) {
        damaged[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(damaged.size()) - 1))] ^=
            static_cast<char>(rng.Uniform(1, 255));
      }
    }
    if (kind != 0) {
      damaged.resize(static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(damaged.size()) - 1)));
    }
    const auto store = [&](const std::string& bytes) {
      ASSERT_TRUE(disk.Delete("/t").ok());
      ASSERT_TRUE(disk.Create("/t").ok());
      ASSERT_TRUE(disk.Write("/t", 0, bytes).ok());
    };
    store(*written);
    kvs::Memtable memtable;
    kvs::Index index(disk, memtable);
    if (!before_registration) {
      index.AddTable("/t");
    }
    store(damaged);
    if (before_registration) {
      index.AddTable("/t");
    }
    size_t corrupt = 0;
    for (const auto& [key, entry] : entries) {
      const auto got = index.Get(key);
      if (!got.ok()) {
        EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << key << ": " << got.status();
        ++corrupt;
      } else if (entry.tombstone) {
        EXPECT_FALSE(got->has_value()) << key;
      } else {
        ASSERT_TRUE(got->has_value()) << key;
        EXPECT_EQ(**got, entry.value) << key;
      }
      // Absent keys between and past the written ones stay absent.
      const auto absent = index.Get(key + "+");
      if (absent.ok()) {
        EXPECT_FALSE(absent->has_value()) << key << "+";
      } else {
        EXPECT_EQ(absent.status().code(), StatusCode::kCorruption) << key << "+";
      }
    }
    if (before_registration) {
      EXPECT_EQ(corrupt, entries.size()) << "a damaged table must fail its verification";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsTableMutationProperty, ::testing::Range<uint64_t>(1, 25));

// ------------------------------------------------------ compaction merge

// CompactOnce's merged table, byte for byte, against a reference merge:
// every table's entries into one std::map, oldest first so newer records
// overwrite, tombstones dropped, then the table format written out by hand. Table sets are random: shared keys overwrite, tombstones delete,
// some tables are empty, and sometimes a listed table is gone when the
// merge reads it.
class CompactionMergeProperty : public ::testing::TestWithParam<uint64_t> {};

using Entries = std::vector<std::pair<std::string, kvs::MemEntry>>;

// The survivors of the reference merge.
std::map<std::string, kvs::MemEntry> OracleMerge(const std::vector<Entries>& tables) {
  std::map<std::string, kvs::MemEntry> merged;
  for (const Entries& table : tables) {
    for (const auto& [key, entry] : table) {
      merged[key] = entry;
    }
  }
  std::erase_if(merged, [](const auto& item) { return item.second.tombstone; });
  return merged;
}

std::string OracleTableBytes(const std::map<std::string, kvs::MemEntry>& survivors) {
  std::string body;
  for (const auto& [key, entry] : survivors) {
    kvs::PutU32(body, static_cast<uint32_t>(key.size()));
    kvs::PutU32(body, static_cast<uint32_t>(entry.value.size()));
    body += 'V';
    body += key;
    body += entry.value;
  }
  return body + StrFormat("%08x", Crc32(body));
}

TEST_P(CompactionMergeProperty, MergedTableMatchesMapMergeByteForByte) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  SimDisk disk(clock, injector, DiskOptions{.base_latency = 0, .per_kb_latency = 0});
  kvs::Memtable memtable;
  kvs::Index index(disk, memtable);
  kvs::PartitionManager partitions(disk);
  HookSet hooks;
  MetricsRegistry metrics;
  kvs::CompactionOptions options;
  options.table_dir = "/sst";
  kvs::CompactionManager compaction(clock, disk, index, partitions, hooks, metrics, options);
  Rng rng(GetParam());

  std::vector<Entries> tables(static_cast<size_t>(rng.Uniform(1, 6)));
  for (size_t t = 0; t < tables.size(); ++t) {
    std::map<std::string, kvs::MemEntry> table;
    const int64_t count = rng.Bernoulli(0.2) ? 0 : rng.Uniform(1, 40);
    for (int64_t i = 0; i < count; ++i) {
      // A small key space, so tables overwrite each other's keys; a NUL in
      // some keys and values checks that every byte is merged as data.
      std::string key = StrFormat("k%02lld", static_cast<long long>(rng.Uniform(0, 59)));
      if (rng.Bernoulli(0.1)) {
        key += std::string(1, '\0') + "z";
      }
      kvs::MemEntry entry;
      entry.tombstone = rng.Bernoulli(0.25);
      if (!entry.tombstone) {
        entry.value = StrFormat("v%zu-", t) + std::string(static_cast<size_t>(rng.Uniform(0, 32)),
                                                         static_cast<char>(i % 3));
      }
      table[key] = std::move(entry);
    }
    tables[t].assign(table.begin(), table.end());
    const std::string path = StrFormat("/sst/%06zu.sst", t);
    ASSERT_TRUE(kvs::SsTable::Write(disk, path, tables[t]).ok());
    index.AddTable(path);
  }

  // A listed table gone when the merge reads it (the index snapshot went
  // stale): CompactOnce fails NOT_FOUND, as a reference merge reading the
  // same files would, and leaves the index as it was; the probe skips the
  // table.
  if (rng.Bernoulli(0.3)) {
    const std::string path =
        StrFormat("/sst/%06lld.sst", static_cast<long long>(rng.Uniform(
                                         0, static_cast<int64_t>(tables.size()) - 1)));
    auto bytes = disk.ReadAll(path);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(disk.Delete(path).ok());
    EXPECT_TRUE(compaction.MergeProbe("checker").ok());
    EXPECT_EQ(compaction.CompactOnce(/*force=*/true).code(), StatusCode::kNotFound);
    EXPECT_EQ(index.Tables().size(), tables.size());
    EXPECT_TRUE(disk.List("/sst/merged").empty());
    ASSERT_TRUE(disk.Create(path).ok());
    ASSERT_TRUE(disk.Write(path, 0, *bytes).ok());
  }

  EXPECT_TRUE(compaction.MergeProbe("checker").ok());
  ASSERT_TRUE(compaction.CompactOnce(/*force=*/true).ok());
  const std::vector<std::string> after = index.Tables();
  ASSERT_EQ(after.size(), 1u);
  const auto merged = disk.ReadAll(after.front());
  ASSERT_TRUE(merged.ok());
  const auto survivors = OracleMerge(tables);
  EXPECT_EQ(*merged, OracleTableBytes(survivors));
  EXPECT_TRUE(disk.List("/sst/0").empty());  // every input table deleted
  const auto registered = partitions.Partitions();
  if (survivors.empty()) {
    EXPECT_TRUE(registered.empty());
  } else {
    ASSERT_EQ(registered.size(), 1u);
    EXPECT_EQ(registered[0].min_key, survivors.begin()->first);
    EXPECT_EQ(registered[0].max_key, survivors.rbegin()->first);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionMergeProperty, ::testing::Range<uint64_t>(1, 41));

// ------------------------------------------------------------ CRC detection

// A 4 KB buffer, long enough for the fold kernel: bits 0-23 flip in the first
// 64 bytes (the four lanes the kernel starts from), 24-39 in the middle 16
// bytes and 40-63 in the last 15 bytes (the final fold and reduction).
class CrcFlipProperty : public ::testing::TestWithParam<int> {};

TEST_P(CrcFlipProperty, SingleBitFlipAlwaysDetected) {
  constexpr size_t kSize = 4096;
  Rng rng(42);
  std::string data(kSize, '\0');
  for (char& ch : data) {
    ch = static_cast<char>(rng.Uniform(0, 255));
  }
  const uint32_t clean = Crc32(data);
  const int bit = GetParam();
  size_t at = 0;
  if (bit < 24) {
    at = static_cast<size_t>(bit) * 64 / 24;
  } else if (bit < 40) {
    at = kSize / 2 - 8 + static_cast<size_t>(bit - 24);
  } else {
    at = kSize - 15 + static_cast<size_t>(bit - 40) % 15;
  }
  data[at] ^= static_cast<char>(1 << (bit % 8));
  EXPECT_NE(Crc32(data), clean) << "byte " << at << " bit " << bit % 8;
}

INSTANTIATE_TEST_SUITE_P(Bits, CrcFlipProperty, ::testing::Range(0, 64));

// --------------------------------------------------------- reducer invariants

namespace reducer_prop {

// Random acyclic module: f0 is the long-running root with a loop; each
// function calls only higher-numbered functions.
awd::Module RandomModule(uint64_t seed) {
  Rng rng(seed);
  awd::Module module(StrFormat("rand%llu", static_cast<unsigned long long>(seed)));
  const int fn_count = static_cast<int>(rng.Uniform(2, 6));
  const awd::OpKind kinds[] = {awd::OpKind::kIoRead,  awd::OpKind::kIoWrite,
                               awd::OpKind::kNetSend, awd::OpKind::kLockAcquire,
                               awd::OpKind::kCompute, awd::OpKind::kSleep,
                               awd::OpKind::kAlloc,   awd::OpKind::kLockRelease};
  for (int f = 0; f < fn_count; ++f) {
    awd::FunctionBuilder builder(StrFormat("f%d", f), "comp");
    if (f == 0) {
      builder.LongRunning();
      builder.LoopBegin();
    }
    const int op_count = static_cast<int>(rng.Uniform(1, 8));
    for (int i = 0; i < op_count; ++i) {
      if (f + 1 < fn_count && rng.Bernoulli(0.3)) {
        builder.Call(StrFormat("f%lld", static_cast<long long>(rng.Uniform(f + 1, fn_count - 1))));
        continue;
      }
      const awd::OpKind kind = kinds[rng.Uniform(0, 7)];
      builder.Op(kind, StrFormat("site.%lld", static_cast<long long>(rng.Uniform(0, 5))), {"x"});
    }
    if (f == 0) {
      builder.LoopEnd();
    }
    module.AddFunction(builder.Build());
  }
  return module;
}

}  // namespace reducer_prop

class ReducerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReducerProperty, InvariantsHoldOnRandomModules) {
  const awd::Module module = reducer_prop::RandomModule(GetParam());
  const awd::VulnerabilityPolicy policy = awd::VulnerabilityPolicy::Default();
  awd::Reducer reducer(module);
  const awd::ReducedProgram program = reducer.Reduce();

  const awd::CallGraph graph(module);
  const auto reachable = graph.ReachableFrom("f0");

  for (const awd::ReducedFunction& fn : program.functions) {
    std::set<std::pair<awd::OpKind, std::string>> seen;
    for (const awd::ReducedOp& op : fn.ops) {
      // Invariant 1: every retained op is vulnerable under the policy.
      awd::Instr instr;
      instr.kind = op.kind;
      instr.site = op.site;
      EXPECT_TRUE(policy.IsVulnerable(instr)) << awd::OpKindName(op.kind);
      // Invariant 2: no duplicate (kind, site) within one reduced function.
      EXPECT_TRUE(seen.insert({op.kind, op.site}).second);
      // Invariant 3: provenance points into a function reachable from a root.
      EXPECT_EQ(reachable.count(op.origin_function), 1u) << op.origin_function;
      // Invariant 4: the origin instruction exists and matches.
      const awd::Function* origin = module.GetFunction(op.origin_function);
      ASSERT_NE(origin, nullptr);
      const awd::Instr* found = origin->FindInstr(op.origin_instr_id);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found->kind, op.kind);
      EXPECT_EQ(found->site, op.site);
    }
  }

  // Invariant 5: reduction is deterministic.
  const awd::ReducedProgram again = awd::Reducer(module).Reduce();
  ASSERT_EQ(again.functions.size(), program.functions.size());
  for (size_t i = 0; i < program.functions.size(); ++i) {
    ASSERT_EQ(again.functions[i].ops.size(), program.functions[i].ops.size());
    for (size_t j = 0; j < program.functions[i].ops.size(); ++j) {
      EXPECT_EQ(again.functions[i].ops[j].site, program.functions[i].ops[j].site);
      EXPECT_EQ(again.functions[i].ops[j].origin_instr_id,
                program.functions[i].ops[j].origin_instr_id);
    }
  }

  // Invariant 6: disabling dedup never yields FEWER ops.
  awd::ReducerOptions no_dedup;
  no_dedup.dedup_similar = false;
  no_dedup.global_dedup = false;
  const awd::ReducedProgram fat = awd::Reducer(module, no_dedup).Reduce();
  EXPECT_GE(fat.stats.ops_retained, program.stats.ops_retained);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReducerProperty, ::testing::Range<uint64_t>(1, 25));

// ------------------------------------------------------- bounded queue sweep

class QueueCapacityProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(QueueCapacityProperty, NeverExceedsCapacityNeverLosesItems) {
  const size_t capacity = GetParam();
  BoundedQueue<int> queue(capacity);
  std::atomic<int64_t> pushed_sum{0};
  std::atomic<int64_t> popped_sum{0};
  std::atomic<int> popped_count{0};
  constexpr int kItems = 500;

  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i) {
      ASSERT_TRUE(queue.Push(i, Sec(10)));
      pushed_sum += i;
      EXPECT_LE(queue.Size(), capacity);
    }
  });
  std::thread consumer([&] {
    while (popped_count.load() < kItems) {
      const auto item = queue.Pop(Sec(10));
      ASSERT_TRUE(item.has_value());
      popped_sum += *item;
      ++popped_count;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(pushed_sum.load(), popped_sum.load());
  EXPECT_EQ(queue.Size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueCapacityProperty,
                         ::testing::Values(1, 2, 3, 8, 64, 1024));

// ------------------------------------------------------- site pattern sweep

struct PatternCase {
  const char* pattern;
  const char* site;
  bool matches;
};

class SitePatternProperty : public ::testing::TestWithParam<PatternCase> {};

TEST_P(SitePatternProperty, MatchesAsSpecified) {
  const PatternCase& c = GetParam();
  EXPECT_EQ(SitePatternMatches(c.pattern, c.site), c.matches)
      << c.pattern << " vs " << c.site;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SitePatternProperty,
    ::testing::Values(PatternCase{"*", "", true}, PatternCase{"*", "x.y.z", true},
                      PatternCase{"a.*", "a.", true}, PatternCase{"a.*", "a.b.c", true},
                      PatternCase{"a.*", "a", false}, PatternCase{"a.*", "ab.c", false},
                      PatternCase{"a.b", "a.b", true}, PatternCase{"a.b", "a.b.c", false},
                      PatternCase{"", "", true}, PatternCase{"", "x", false}));

// --------------------------------------------------- frame reader mutation

// Valid wdogd frame streams, damaged by seeded bit flips, cuts and splices,
// fed to a FrameReader in random chunk sizes. Every Next() yields a frame
// that re-encodes to exactly the bytes it consumed, nullopt (consuming
// nothing), or an error; after the first error every Next() errors. An
// undamaged stream decodes to exactly its frames, and no read strays past
// the buffer (the sanitizer legs run this suite).
class FrameReaderMutationProperty : public ::testing::TestWithParam<uint64_t> {};

std::string RandomBytes(Rng& rng, int64_t max_size) {
  std::string bytes(static_cast<size_t>(rng.Uniform(0, max_size)), '\0');
  for (char& byte : bytes) {
    byte = static_cast<char>(rng.Uniform(0, 255));
  }
  return bytes;
}

std::string RandomFrameStream(Rng& rng, int frames) {
  std::string wire;
  for (int i = 0; i < frames; ++i) {
    Frame frame;
    frame.type = static_cast<FrameType>(rng.Uniform(1, 7));
    frame.name = RandomBytes(rng, 24);
    frame.message = RandomBytes(rng, 40);
    frame.deadline = static_cast<DurationNs>(rng.NextU64());
    frame.client_id = rng.NextU64();
    frame.seq = rng.NextU64();
    wire += EncodeFrame(frame);
  }
  return wire;
}

TEST_P(FrameReaderMutationProperty, EveryNextIsAnExactFrameNulloptOrPoison) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const int frames = static_cast<int>(rng.Uniform(1, 12));
    std::string stream = RandomFrameStream(rng, frames);
    const bool damaged = trial % 5 != 0;  // every fifth stream stays intact
    const auto offset = [&rng](const std::string& bytes) {  // in [0, size]
      return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(bytes.size())));
    };
    if (damaged) {
      for (int64_t flips = rng.Uniform(0, 3); flips > 0; --flips) {
        const size_t at = rng.NextU64() % stream.size();
        stream[at] = static_cast<char>(stream[at] ^ (1 << rng.Uniform(0, 7)));
      }
      if (rng.Bernoulli(0.3)) {  // cut
        stream.resize(offset(stream));
      }
      if (rng.Bernoulli(0.3)) {  // splice another stream's tail on at a random offset
        const std::string other = RandomFrameStream(rng, static_cast<int>(rng.Uniform(1, 4)));
        stream = stream.substr(0, offset(stream)) + other.substr(offset(other));
      }
    }

    FrameReader reader;
    size_t fed = 0;
    size_t consumed = 0;
    int decoded = 0;
    bool poisoned = false;
    while (fed < stream.size()) {
      const size_t chunk =
          std::min(stream.size() - fed, static_cast<size_t>(rng.Uniform(1, 48)));
      reader.Append(std::string_view(stream).substr(fed, chunk));
      fed += chunk;
      for (;;) {
        const size_t before = reader.buffered_bytes();
        auto next = reader.Next();
        if (poisoned) {
          ASSERT_FALSE(next.ok()) << "Next() recovered from a poisoned stream";
          break;
        }
        if (!next.ok()) {
          poisoned = true;
          continue;  // the very next call must error too
        }
        const size_t used = before - reader.buffered_bytes();
        if (!next->has_value()) {
          EXPECT_EQ(used, 0u) << "nullopt consumed bytes";
          break;
        }
        ASSERT_EQ(EncodeFrame(**next), stream.substr(consumed, used))
            << "frame " << decoded << " does not re-encode to the bytes it consumed";
        consumed += used;
        ++decoded;
      }
      if (!poisoned) {
        EXPECT_EQ(consumed + reader.buffered_bytes(), fed);
      }
    }
    if (!damaged) {
      EXPECT_FALSE(poisoned);
      EXPECT_EQ(decoded, frames);
      EXPECT_EQ(reader.buffered_bytes(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameReaderMutationProperty, ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace wdg
