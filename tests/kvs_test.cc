// Unit tests for kvs components: types, memtable, WAL, SSTable, index,
// partition manager, flusher, compaction, replication.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <span>

#include "src/common/checksum.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/kvs/ctx_keys.h"
#include "src/kvs/compaction.h"
#include "src/kvs/flusher.h"
#include "src/kvs/index.h"
#include "src/kvs/ir_model.h"
#include "src/kvs/memtable.h"
#include "src/kvs/partition.h"
#include "src/kvs/replication.h"
#include "src/kvs/sstable.h"
#include "src/kvs/types.h"
#include "src/kvs/wal.h"
#include "src/sim/sim_net.h"

// Replacing the global allocators is binary-wide; the counter is read only
// around the mimic runs in TableMimicsReadAndAllocateTheSameAtAnyDataSize.
static std::atomic<int64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) {
    return ptr;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line on purpose: inlined into a caller, `free` would meet a pointer
// GCC tracks as `new`-allocated and trip -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete[](void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace kvs {
namespace {

// Log records whose message contains `text`.
size_t CountLogLines(const wdg::CaptureSink& sink, const std::string& text) {
  const auto records = sink.records();
  return static_cast<size_t>(std::count_if(records.begin(), records.end(), [&](const auto& r) {
    return r.message.find(text) != std::string::npos;
  }));
}

TEST(KvsTypesTest, RequestRoundtrip) {
  Request req;
  req.op = OpType::kSet;
  req.key = "user:1";
  req.value = "alice";
  const auto decoded = Request::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, OpType::kSet);
  EXPECT_EQ(decoded->key, "user:1");
  EXPECT_EQ(decoded->value, "alice");
}

TEST(KvsTypesTest, AllOpsRoundtrip) {
  for (const OpType op : {OpType::kGet, OpType::kSet, OpType::kAppend, OpType::kDel}) {
    Request req;
    req.op = op;
    req.key = "k";
    const auto decoded = Request::Decode(req.Encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->op, op);
  }
}

TEST(KvsTypesTest, MalformedRequestRejected) {
  EXPECT_FALSE(Request::Decode("garbage").ok());
  EXPECT_FALSE(Request::Decode("FLY\x1fkey\x1fval").ok());
}

TEST(KvsTypesTest, ResponseRoundtrip) {
  const Response ok = Response::Ok("value");
  const auto decoded_ok = Response::Decode(ok.Encode());
  ASSERT_TRUE(decoded_ok.ok());
  EXPECT_TRUE(decoded_ok->ok);
  EXPECT_EQ(decoded_ok->value, "value");

  const Response err = Response::Err(wdg::TimeoutError("slow"));
  const auto decoded_err = Response::Decode(err.Encode());
  ASSERT_TRUE(decoded_err.ok());
  EXPECT_FALSE(decoded_err->ok);
  EXPECT_NE(decoded_err->error.find("TIMEOUT"), std::string::npos);
}

TEST(MemtableTest, SetGetDelLifecycle) {
  Memtable table;
  table.Set("a", "1");
  EXPECT_EQ(table.Get("a")->value, "1");
  table.Set("a", "2");
  EXPECT_EQ(table.Get("a")->value, "2");
  table.Del("a");
  ASSERT_TRUE(table.Get("a").has_value());
  EXPECT_TRUE(table.Get("a")->tombstone);
  EXPECT_FALSE(table.Get("missing").has_value());
}

TEST(MemtableTest, AppendConcatenatesAndRevivesTombstone) {
  Memtable table;
  table.Set("log", "a");
  table.Append("log", "b");
  EXPECT_EQ(table.Get("log")->value, "ab");
  table.Del("log");
  table.Append("log", "c");
  EXPECT_EQ(table.Get("log")->value, "c");
  EXPECT_FALSE(table.Get("log")->tombstone);
}

TEST(MemtableTest, ByteAccountingTracksContent) {
  Memtable table;
  EXPECT_EQ(table.ApproximateBytes(), 0);
  table.Set("key", "12345");
  const int64_t after_set = table.ApproximateBytes();
  EXPECT_EQ(after_set, 8);  // 3 + 5
  table.Set("key", "1");
  EXPECT_LT(table.ApproximateBytes(), after_set);
  table.Del("key");
  EXPECT_EQ(table.ApproximateBytes(), 3);  // key remains as tombstone
}

TEST(MemtableTest, TwoPhaseFlushKeepsEntriesReadableAndNewerWrites) {
  Memtable table;
  table.Set("a", "old");
  table.Set("b", "keep");
  const auto entries = table.BeginFlush();
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(table.Get("a")->value, "old");  // still readable mid-flush
  table.Set("a", "new");                    // lands while the flush runs
  table.AbortFlush();
  EXPECT_EQ(table.Get("a")->value, "new");  // the newer write wins the restore
  EXPECT_EQ(table.Get("b")->value, "keep");
  // A successful flush drops the buffer once the SSTable is indexed.
  (void)table.BeginFlush();
  table.EndFlush();
  EXPECT_FALSE(table.Get("a").has_value());
}

TEST(MemtableTest, DrainEmptiesAndSortsEntries) {
  Memtable table;
  table.Set("b", "2");
  table.Set("a", "1");
  const auto drained = table.Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].first, "a");  // sorted
  EXPECT_EQ(table.EntryCount(), 0u);
  EXPECT_EQ(table.ApproximateBytes(), 0);
}

class KvsDiskFixture : public ::testing::Test {
 protected:
  KvsDiskFixture() : injector_(clock_), disk_(clock_, injector_, FastDisk()) {}
  static wdg::DiskOptions FastDisk() {
    wdg::DiskOptions options;
    options.base_latency = 0;
    options.per_kb_latency = 0;
    return options;
  }
  wdg::RealClock& clock_ = wdg::RealClock::Instance();
  wdg::FaultInjector injector_;
  wdg::SimDisk disk_;
};

using WalTest = KvsDiskFixture;

TEST_F(WalTest, AppendAndRecover) {
  Wal wal(disk_, "/w/wal.log");
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("record-1").ok());
  ASSERT_TRUE(wal.Append("record-2").ok());
  const auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->records.size(), 2u);
  EXPECT_EQ(recovery->records[0], "record-1");
  EXPECT_EQ(recovery->corrupt_tail_bytes, 0);
}

TEST_F(WalTest, RecoveryStopsAtCorruptRecord) {
  Wal wal(disk_, "/w/wal.log");
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("good").ok());
  ASSERT_TRUE(wal.Append("will-be-corrupted").ok());
  // Flip a byte inside the second record's payload.
  const auto size = disk_.Size("/w/wal.log");
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(disk_.Write("/w/wal.log", *size - 3, "X").ok());
  const auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->records.size(), 1u);
  EXPECT_EQ(recovery->records[0], "good");
  EXPECT_GT(recovery->corrupt_tail_bytes, 0);
}

TEST_F(WalTest, RecoveryToleratesTornTail) {
  Wal wal(disk_, "/w/wal.log");
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("whole").ok());
  // Simulate a torn write: an incomplete frame at the end.
  ASSERT_TRUE(disk_.Append("/w/wal.log", "\x09\x00\x00").ok());
  const auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records.size(), 1u);
}

TEST_F(WalTest, TruncateRestartsLog) {
  Wal wal(disk_, "/w/wal.log");
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("x").ok());
  ASSERT_TRUE(wal.Truncate().ok());
  const auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->records.empty());
}

using SsTableTest = KvsDiskFixture;

static std::vector<std::pair<std::string, MemEntry>> SampleEntries() {
  return {{"alpha", {"1", false}}, {"beta", {"2", false}}, {"gamma", {"", true}}};
}

// Every record of the table at `path`, as a merge reads it: one run merges
// to itself.
static wdg::Result<std::vector<std::pair<std::string, MemEntry>>> ReadEntries(
    const wdg::SimDisk& disk, const std::string& path) {
  WDG_ASSIGN_OR_RETURN(SsRun run, SsRun::Read(disk, path));
  std::vector<std::pair<std::string, MemEntry>> entries;
  SsMerge merge(std::span<const SsRun>(&run, 1));
  for (SsRecord record; merge.Next(record);) {
    entries.emplace_back(std::string(record.key),
                         MemEntry{std::string(record.value), record.tombstone});
  }
  return entries;
}

static void ExpectSameEntries(const std::vector<std::pair<std::string, MemEntry>>& actual,
                              const std::vector<std::pair<std::string, MemEntry>>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].first, expected[i].first) << "record " << i;
    EXPECT_EQ(actual[i].second.value, expected[i].second.value) << "record " << i;
    EXPECT_EQ(actual[i].second.tombstone, expected[i].second.tombstone) << "record " << i;
  }
}

TEST_F(SsTableTest, WriteReadRoundtrip) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", SampleEntries()).ok());
  const auto read = ReadEntries(disk_, "/sst/1");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameEntries(*read, SampleEntries());
}

TEST_F(SsTableTest, ValidateDetectsBitRot) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", SampleEntries()).ok());
  EXPECT_TRUE(SsTable::Validate(disk_, "/sst/1").ok());
  disk_.MarkBadRange("/sst/1", 2, 3);
  EXPECT_EQ(SsTable::Validate(disk_, "/sst/1").code(), wdg::StatusCode::kCorruption);
}

TEST_F(SsTableTest, BlockLookupFindsAndMisses) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", SampleEntries()).ok());
  const auto map = SsBlockMap::Build(disk_, "/sst/1");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  const auto hit = map->Lookup(disk_, "beta");
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->has_value());
  EXPECT_EQ((*hit)->value, "2");
  const auto miss = map->Lookup(disk_, "zeta");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());
}

// `count` records "key%06d" -> 100-byte values: 118 bytes each, so 34 fill
// a block.
static std::vector<std::pair<std::string, MemEntry>> UniformEntries(int count) {
  std::vector<std::pair<std::string, MemEntry>> entries;
  for (int i = 0; i < count; ++i) {
    entries.emplace_back(wdg::StrFormat("key%06d", i),
                         MemEntry{std::string(100, static_cast<char>('a' + i % 26)), i % 7 == 3});
  }
  return entries;
}

TEST_F(SsTableTest, BlockMapCutsRecordAlignedBlocksThatCoverTheBody) {
  const auto entries = UniformEntries(300);
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/big", entries).ok());
  const auto map = SsBlockMap::Build(disk_, "/sst/big");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  const std::vector<SsBlock>& blocks = map->blocks();
  ASSERT_EQ(blocks.size(), 9u);  // ceil(300 / 34)
  size_t next = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].offset, next) << "block " << i;
    EXPECT_LE(blocks[i].size, kSsBlockBytes) << "block " << i;
    EXPECT_EQ(blocks[i].first_key, entries[i * 34].first) << "block " << i;
    next += blocks[i].size;
  }
  EXPECT_EQ(next, 300u * 118u);  // every body byte, the footer excluded

  // A record larger than a block gets a block of its own.
  const std::string wide_value(2 * kSsBlockBytes, 'w');
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/wide",
                             {{"a", {"1", false}}, {"b", {wide_value, false}}, {"c", {"3", false}}})
                  .ok());
  const auto wide = SsBlockMap::Build(disk_, "/sst/wide");
  ASSERT_TRUE(wide.ok());
  ASSERT_EQ(wide->blocks().size(), 3u);
  EXPECT_EQ(wide->blocks()[1].first_key, "b");
  EXPECT_EQ((*wide->Lookup(disk_, "b"))->value.size(), 2 * kSsBlockBytes);
}

TEST_F(SsTableTest, BlockLookupReadsOneBlockAndVerifiesOnlyThatBlock) {
  const auto entries = UniformEntries(300);
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/big", entries).ok());
  const auto map = SsBlockMap::Build(disk_, "/sst/big");
  ASSERT_TRUE(map.ok());
  wdg::Counter* bytes_read = disk_.metrics().GetCounter("disk.bytes_read");
  for (const auto& [key, entry] : entries) {
    const int64_t before = bytes_read->Value();
    const auto hit = map->Lookup(disk_, key);
    ASSERT_TRUE(hit.ok()) << key << ": " << hit.status().ToString();
    ASSERT_TRUE(hit->has_value()) << key;
    EXPECT_EQ((*hit)->value, entry.value) << key;
    EXPECT_EQ((*hit)->tombstone, entry.tombstone) << key;
    EXPECT_LE(bytes_read->Value() - before, static_cast<int64_t>(kSsBlockBytes)) << key;
  }
  // Keys outside the table's range read nothing; a key between two records
  // reads the one block that could hold it.
  for (const char* key : {"a", "key", "key999999", "zzz"}) {
    const int64_t before = bytes_read->Value();
    const auto miss = map->Lookup(disk_, key);
    ASSERT_TRUE(miss.ok()) << key;
    EXPECT_FALSE(miss->has_value()) << key;
    EXPECT_EQ(bytes_read->Value(), before) << key;
  }
  const auto between = map->Lookup(disk_, "key000100x");
  ASSERT_TRUE(between.ok());
  EXPECT_FALSE(between->has_value());

  // Rot under block 4 fails exactly the lookups that read block 4.
  const SsBlock& rotten = map->blocks()[4];
  disk_.MarkBadRange("/sst/big", static_cast<int64_t>(rotten.offset + rotten.size / 2), 1);
  for (size_t i = 0; i < entries.size(); ++i) {
    const auto result = map->Lookup(disk_, entries[i].first);
    if (i / 34 == 4) {
      EXPECT_EQ(result.status().code(), wdg::StatusCode::kCorruption) << entries[i].first;
    } else {
      ASSERT_TRUE(result.ok()) << entries[i].first;
      EXPECT_EQ((*result)->value, entries[i].second.value);
    }
  }
  disk_.ClearBadRanges();

  // A file cut short under the map: blocks past the cut are corrupt too.
  const auto bytes = disk_.ReadAll("/sst/big");
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(disk_.Delete("/sst/big").ok());
  ASSERT_TRUE(disk_.Create("/sst/big").ok());
  ASSERT_TRUE(disk_.Write("/sst/big", 0, bytes->substr(0, map->blocks()[6].offset + 10)).ok());
  EXPECT_EQ(map->Lookup(disk_, entries[6 * 34 + 1].first).status().code(),
            wdg::StatusCode::kCorruption);
  EXPECT_EQ(map->Lookup(disk_, entries.back().first).status().code(),
            wdg::StatusCode::kCorruption);
  EXPECT_TRUE(map->Lookup(disk_, entries.front().first).ok());
}

TEST_F(SsTableTest, ReadPrefixMergesWholeVerifiedBlocksWithinBudget) {
  const auto entries = UniformEntries(300);
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/big", entries).ok());
  const auto map = SsBlockMap::Build(disk_, "/sst/big");
  ASSERT_TRUE(map.ok());
  const auto run = SsRun::ReadPrefix(disk_, *map, 2 * kSsBlockBytes);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->body_size(), map->blocks()[0].size + map->blocks()[1].size);
  std::vector<std::string> keys;
  SsMerge merge(std::span<const SsRun>(&*run, 1));
  for (SsRecord record; merge.Next(record);) {
    keys.emplace_back(record.key);
  }
  ASSERT_EQ(keys.size(), 68u);
  EXPECT_EQ(keys.back(), entries[67].first);
  // Any budget reads at least the first block.
  EXPECT_EQ(SsRun::ReadPrefix(disk_, *map, 1)->body_size(), map->blocks()[0].size);
  // A flip inside the prefix fails it; one past the prefix does not.
  disk_.MarkBadRange("/sst/big", static_cast<int64_t>(map->blocks()[1].offset), 1);
  EXPECT_EQ(SsRun::ReadPrefix(disk_, *map, 2 * kSsBlockBytes).status().code(),
            wdg::StatusCode::kCorruption);
  disk_.ClearBadRanges();
  disk_.MarkBadRange("/sst/big", static_cast<int64_t>(map->blocks()[2].offset), 1);
  EXPECT_TRUE(SsRun::ReadPrefix(disk_, *map, 2 * kSsBlockBytes).ok());
}

TEST_F(SsTableTest, EmptyTableIsValid) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/empty", {}).ok());
  EXPECT_TRUE(SsTable::Validate(disk_, "/sst/empty").ok());
  const auto read = ReadEntries(disk_, "/sst/empty");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST_F(SsTableTest, AnyByteInKeysAndValuesRoundtrips) {
  const std::string rs(1, '\x1e');
  const std::string us(1, '\x1f');
  const std::string nul(1, '\0');
  std::vector<std::pair<std::string, MemEntry>> entries = {
      {nul + "k", {"x" + nul + "y", false}},
      {"k" + rs, {rs, false}},
      {"k" + us, {"a" + us + "b" + rs + "c", false}},
      {"plain", {"plain", false}},
      {"tomb" + rs + us + nul, {"", true}},
  };
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/odd", entries).ok());
  EXPECT_TRUE(SsTable::Validate(disk_, "/sst/odd").ok());
  const auto read = ReadEntries(disk_, "/sst/odd");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameEntries(*read, entries);
  const auto map = SsBlockMap::Build(disk_, "/sst/odd");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  for (const auto& [key, entry] : entries) {
    const auto hit = map->Lookup(disk_, key);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_TRUE(hit->has_value());
    EXPECT_EQ((*hit)->value, entry.value);
    EXPECT_EQ((*hit)->tombstone, entry.tombstone);
  }
  const auto miss = map->Lookup(disk_, "k");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());
}

TEST_F(SsTableTest, LengthPastEndIsCorruptionDespiteValidCrc) {
  // One record, key_len 3 and value_len 1000, in a 12-byte body whose footer
  // CRC is correct: the walker must refuse it, not read past the buffer.
  const std::string body("\x03\x00\x00\x00\xe8\x03\x00\x00" "V" "key", 12);
  ASSERT_TRUE(disk_.Create("/sst/overrun").ok());
  ASSERT_TRUE(
      disk_.Write("/sst/overrun", 0, body + wdg::StrFormat("%08x", wdg::Crc32(body))).ok());
  EXPECT_EQ(SsTable::Validate(disk_, "/sst/overrun").code(), wdg::StatusCode::kCorruption);
  EXPECT_EQ(SsRun::Read(disk_, "/sst/overrun").status().code(),
            wdg::StatusCode::kCorruption);
  EXPECT_EQ(SsBlockMap::Build(disk_, "/sst/overrun").status().code(),
            wdg::StatusCode::kCorruption);

  // A body that ends inside a record header is refused the same way.
  const std::string stub("\x03\x00\x00", 3);
  ASSERT_TRUE(disk_.Create("/sst/stub").ok());
  ASSERT_TRUE(
      disk_.Write("/sst/stub", 0, stub + wdg::StrFormat("%08x", wdg::Crc32(stub))).ok());
  EXPECT_EQ(SsTable::Validate(disk_, "/sst/stub").code(), wdg::StatusCode::kCorruption);
}

TEST_F(SsTableTest, RunKeysOutOfOrderAreCorruptionDespiteValidCrc) {
  // Write frames whatever it is given, CRC included, so these tables pass
  // every check but the merge's order one: a descending pair and a repeated
  // key.
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/desc", {{"b", {"1", false}}, {"a", {"2", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/dup", {{"a", {"1", false}}, {"a", {"2", false}}}).ok());
  for (const char* path : {"/sst/desc", "/sst/dup"}) {
    EXPECT_TRUE(SsTable::Validate(disk_, path).ok()) << path;
    EXPECT_EQ(SsRun::Read(disk_, path).status().code(), wdg::StatusCode::kCorruption) << path;
    EXPECT_EQ(SsBlockMap::Build(disk_, path).status().code(), wdg::StatusCode::kCorruption)
        << path;
  }
  // The empty key sorts first and is a key like any other.
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/ok", {{"", {"e", false}}, {"a", {"1", false}}}).ok());
  EXPECT_TRUE(SsRun::Read(disk_, "/sst/ok").ok());
}

TEST_F(SsTableTest, MergeTakesEachKeyFromTheNewestRun) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/old", {{"a", {"a-old", false}},
                                                 {"b", {"b-old", false}},
                                                 {"d", {"d-old", false}}})
                  .ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/empty", {}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/new", {{"b", {"", true}},
                                                 {"c", {"c-new", false}},
                                                 {"d", {"d-new", false}}})
                  .ok());
  std::vector<SsRun> runs;
  for (const char* path : {"/sst/old", "/sst/empty", "/sst/new"}) {
    auto run = SsRun::Read(disk_, path);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    runs.push_back(std::move(*run));
  }
  std::vector<std::pair<std::string, MemEntry>> merged;
  SsMerge merge(runs);
  for (SsRecord record; merge.Next(record);) {
    merged.emplace_back(std::string(record.key),
                        MemEntry{std::string(record.value), record.tombstone});
  }
  // Tombstones pass through the merge; dropping them is the caller's call.
  ExpectSameEntries(merged, {{"a", {"a-old", false}},
                             {"b", {"", true}},
                             {"c", {"c-new", false}},
                             {"d", {"d-new", false}}});
}

class IndexTest : public KvsDiskFixture {
 protected:
  IndexTest() : index_(disk_, memtable_) {}
  Memtable memtable_;
  Index index_;
};

TEST_F(IndexTest, MemtableShadowsTables) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"k", {"old", false}}}).ok());
  index_.AddTable("/sst/1");
  EXPECT_EQ(**index_.Get("k"), "old");
  memtable_.Set("k", "new");
  EXPECT_EQ(**index_.Get("k"), "new");
}

TEST_F(IndexTest, NewestTableWins) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"k", {"v1", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/2", {{"k", {"v2", false}}}).ok());
  index_.AddTable("/sst/1");
  index_.AddTable("/sst/2");  // newer
  EXPECT_EQ(**index_.Get("k"), "v2");
}

TEST_F(IndexTest, TombstoneHidesOlderValue) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"k", {"v1", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/2", {{"k", {"", true}}}).ok());
  index_.AddTable("/sst/1");
  index_.AddTable("/sst/2");
  const auto result = index_.Get("k");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->has_value());
}

TEST_F(IndexTest, ReplaceTablesSwapsAtomically) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"a", {"1", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/2", {{"b", {"2", false}}}).ok());
  ASSERT_TRUE(
      SsTable::Write(disk_, "/sst/m", {{"a", {"1", false}}, {"b", {"2", false}}}).ok());
  index_.AddTable("/sst/1");
  index_.AddTable("/sst/2");
  index_.ReplaceTables({"/sst/1", "/sst/2"}, "/sst/m");
  ASSERT_EQ(index_.Tables().size(), 1u);
  EXPECT_EQ(**index_.Get("a"), "1");
  EXPECT_EQ(**index_.Get("b"), "2");
}

TEST_F(IndexTest, GetReadsOneBlockOfEachTableWhoseRangeHoldsTheKey) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"a", {"1", false}}, {"c", {"3", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/2", {{"m", {"13", false}}, {"p", {"16", false}}}).ok());
  index_.AddTable("/sst/1");
  index_.AddTable("/sst/2");
  wdg::Counter* bytes_read = disk_.metrics().GetCounter("disk.bytes_read");
  // Outside every range (the watchdog's probe key sorts below user keys):
  // no table is read.
  for (const std::string& key : {std::string(kWatchdogKeyPrefix) + "probe", std::string("z")}) {
    const int64_t before = bytes_read->Value();
    const auto miss = index_.Get(key);
    ASSERT_TRUE(miss.ok()) << key;
    EXPECT_FALSE(miss->has_value()) << key;
    EXPECT_EQ(bytes_read->Value(), before) << key;
  }
  // Inside one table's range only: that table's block, and nothing else.
  const auto size_2 = disk_.Size("/sst/2");
  ASSERT_TRUE(size_2.ok());
  const int64_t before = bytes_read->Value();
  const auto miss = index_.Get("n");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());
  EXPECT_EQ(bytes_read->Value() - before, *size_2 - 8);  // its one block: the body
  EXPECT_EQ(**index_.Get("c"), "3");
  EXPECT_EQ(**index_.Get("m"), "13");
}

TEST_F(IndexTest, TableThatFailsVerificationFailsEveryGetThatReachesIt) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"a", {"1", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/2", {{"k", {"2", false}}}).ok());
  index_.AddTable("/sst/1");
  disk_.MarkBadRange("/sst/2", 3, 1);
  index_.AddTable("/sst/2");  // newest, and corrupt when verified
  // A table that failed verification has no key range to skip it by.
  for (const char* key : {"a", "k", "zzz"}) {
    EXPECT_EQ(index_.Get(key).status().code(), wdg::StatusCode::kCorruption) << key;
  }
  memtable_.Set("a", "mem");
  EXPECT_EQ(**index_.Get("a"), "mem");  // answered before any table is reached
  // Each Get that reaches it verifies it again, so a table whose read only
  // failed for a while serves reads once the read succeeds.
  disk_.ClearBadRanges();
  EXPECT_EQ(**index_.Get("k"), "2");
}

TEST_F(IndexTest, TransientReadFaultAtRegistrationDoesNotFailReadsForGood) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"k", {"v", false}}}).ok());
  wdg::FaultSpec spec;
  spec.id = "rerr";
  spec.site_pattern = "disk.read";
  spec.kind = wdg::FaultKind::kError;
  spec.error_code = wdg::StatusCode::kUnavailable;
  injector_.Inject(spec);
  index_.AddTable("/sst/1");
  EXPECT_EQ(index_.Get("k").status().code(), wdg::StatusCode::kUnavailable);
  injector_.ClearAll();
  EXPECT_EQ(**index_.Get("k"), "v");
}

TEST_F(IndexTest, BitRotAfterRegistrationFailsGetsThatReadTheRottenBlock) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", UniformEntries(100)).ok());
  index_.AddTable("/sst/1");
  disk_.MarkBadRange("/sst/1", 5, 1);  // inside block 0: keys 0..33
  EXPECT_EQ(index_.Get("key000000").status().code(), wdg::StatusCode::kCorruption);
  EXPECT_EQ(index_.Get("key000033").status().code(), wdg::StatusCode::kCorruption);
  EXPECT_EQ(**index_.Get("key000034"), std::string(100, static_cast<char>('a' + 34 % 26)));
}

TEST_F(IndexTest, InjectedLookupFaultSurfaces) {
  wdg::FaultSpec spec;
  spec.id = "idx";
  spec.site_pattern = "index.lookup";
  spec.kind = wdg::FaultKind::kError;
  spec.error_code = wdg::StatusCode::kInternal;
  injector_.Inject(spec);
  EXPECT_FALSE(index_.Get("k").ok());
  injector_.ClearAll();
}

class PartitionTest : public KvsDiskFixture {
 protected:
  PartitionTest() : partitions_(disk_) {}
  // Replaces `path` with its first `size` bytes.
  void Truncate(const std::string& path, size_t size) {
    const auto bytes = disk_.ReadAll(path);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(disk_.Delete(path).ok());
    ASSERT_TRUE(disk_.Create(path).ok());
    ASSERT_TRUE(disk_.Write(path, 0, std::string_view(*bytes).substr(0, size)).ok());
  }
  // The codes of one sweep of `runs` windows over `path`.
  std::vector<wdg::StatusCode> Sweep(const std::string& path, int runs) {
    std::vector<wdg::StatusCode> codes;
    for (int run = 0; run < runs; ++run) {
      codes.push_back(partitions_.ValidateWindow(path).code());
    }
    return codes;
  }
  PartitionManager partitions_;
};

TEST_F(PartitionTest, ValidatePassesOnIntactData) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p1", {{"a", {"1", false}}}).ok());
  partitions_.Register(Index::Verify(disk_, "/sst/p1"), "a", "a");
  EXPECT_TRUE(partitions_.Validate("/sst/p1").ok());
  EXPECT_TRUE(partitions_.ValidateWindow("/sst/p1").ok());
  EXPECT_TRUE(partitions_.ValidateWindow().ok());
}

// 300 x 118 B records + footer: 35408 bytes. Blocks 0..7 hold 34 records
// (4012 B) each; block 8 holds 28 (3304 B) and the 8 B footer follows it.
// Windows of at most kWindowBytes: {0,1} {2,3} {4,5} {6,7} {8 + footer}.
constexpr int64_t kSweptFileBytes = 35408;
constexpr int kSweepWindows = 5;

TEST_F(PartitionTest, ValidateWindowSweepsEveryBlockInBoundedReads) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p1", UniformEntries(300)).ok());
  partitions_.Register(Index::Verify(disk_, "/sst/p1"), "key000000", "key000299");
  ASSERT_EQ(partitions_.Partitions()[0].table->map->blocks().size(), 9u);
  wdg::Counter* bytes_read = disk_.metrics().GetCounter("disk.bytes_read");
  int64_t swept = 0;
  for (int run = 0; run < kSweepWindows; ++run) {
    const int64_t before = bytes_read->Value();
    EXPECT_TRUE(partitions_.ValidateWindow("/sst/p1").ok()) << run;
    const int64_t read = bytes_read->Value() - before;
    EXPECT_LE(read, static_cast<int64_t>(PartitionManager::kWindowBytes)) << run;
    swept += read;
  }
  EXPECT_EQ(swept, kSweptFileBytes);

  // Rot in block 7: the whole-file check fails, and so does the one window
  // of each sweep that covers block 7.
  disk_.MarkBadRange("/sst/p1", 7 * 4012 + 100, 1);
  EXPECT_EQ(partitions_.Validate("/sst/p1").code(), wdg::StatusCode::kCorruption);
  std::vector<bool> failed;
  for (int run = 0; run < 10; ++run) {
    failed.push_back(partitions_.ValidateWindow("/sst/p1").code() ==
                     wdg::StatusCode::kCorruption);
  }
  EXPECT_EQ(failed, std::vector<bool>({false, false, false, true, false,
                                       false, false, false, true, false}));
  disk_.ClearBadRanges();

  // A file that grew fails the window that ends it, and the whole-file check.
  ASSERT_TRUE(disk_.Append("/sst/p1", "x").ok());
  EXPECT_EQ(partitions_.Validate("/sst/p1").code(), wdg::StatusCode::kCorruption);
  std::vector<wdg::StatusCode> codes = Sweep("/sst/p1", kSweepWindows);
  EXPECT_EQ(codes.back(), wdg::StatusCode::kCorruption);
  EXPECT_EQ(std::count(codes.begin(), codes.end(), wdg::StatusCode::kOk), 4);
}

TEST_F(PartitionTest, ValidateWindowCatchesFooterRotAndTruncation) {
  using wdg::StatusCode;
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p1", UniformEntries(300)).ok());
  partitions_.Register(Index::Verify(disk_, "/sst/p1"), "key000000", "key000299");

  // Rot in the footer: only the window that ends the file reads it.
  disk_.MarkBadRange("/sst/p1", kSweptFileBytes - 3, 1);
  EXPECT_EQ(partitions_.Validate("/sst/p1").code(), StatusCode::kCorruption);
  EXPECT_EQ(Sweep("/sst/p1", kSweepWindows),
            std::vector<StatusCode>({StatusCode::kOk, StatusCode::kOk, StatusCode::kOk,
                                     StatusCode::kOk, StatusCode::kCorruption}));
  disk_.ClearBadRanges();

  // The footer's last byte gone: the window that ends the file reads short.
  Truncate("/sst/p1", kSweptFileBytes - 1);
  EXPECT_EQ(partitions_.Validate("/sst/p1").code(), StatusCode::kCorruption);
  EXPECT_EQ(Sweep("/sst/p1", kSweepWindows),
            std::vector<StatusCode>({StatusCode::kOk, StatusCode::kOk, StatusCode::kOk,
                                     StatusCode::kOk, StatusCode::kCorruption}));

  // Cut inside block 4: that window reads short, and the windows after it
  // start past the end.
  Truncate("/sst/p1", 20000);
  EXPECT_EQ(partitions_.Validate("/sst/p1").code(), StatusCode::kCorruption);
  EXPECT_EQ(Sweep("/sst/p1", kSweepWindows),
            std::vector<StatusCode>({StatusCode::kOk, StatusCode::kOk, StatusCode::kCorruption,
                                     StatusCode::kCorruption, StatusCode::kCorruption}));
}

TEST_F(PartitionTest, FailedVerificationIsRetriedByTheNextValidation) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p1", UniformEntries(300)).ok());
  wdg::FaultSpec spec;
  spec.id = "rerr";
  spec.site_pattern = "disk.read";
  spec.kind = wdg::FaultKind::kError;
  spec.error_code = wdg::StatusCode::kUnavailable;
  spec.max_fires = 1;
  injector_.Inject(spec);
  partitions_.Register(Index::Verify(disk_, "/sst/p1"), "key000000", "key000299");
  ASSERT_EQ(injector_.FireCount("rerr"), 1);
  EXPECT_TRUE(partitions_.Registered("/sst/p1"));
  // The first window verifies the table again, whole; the rest are windows.
  wdg::Counter* bytes_read = disk_.metrics().GetCounter("disk.bytes_read");
  int64_t before = bytes_read->Value();
  EXPECT_TRUE(partitions_.ValidateWindow("/sst/p1").ok());
  EXPECT_EQ(bytes_read->Value() - before, kSweptFileBytes);
  before = bytes_read->Value();
  EXPECT_TRUE(partitions_.ValidateWindow("/sst/p1").ok());
  EXPECT_EQ(bytes_read->Value() - before, 2 * 4012);
  disk_.MarkBadRange("/sst/p1", 100, 1);
  EXPECT_EQ(partitions_.Validate("/sst/p1").code(), wdg::StatusCode::kCorruption);
}

TEST_F(PartitionTest, PathlessWindowsRotateThroughPartitions) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p1", {{"a", {"1", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p2", {{"m", {"2", false}}}).ok());
  partitions_.Register(Index::Verify(disk_, "/sst/p1"), "a", "a");
  partitions_.Register(Index::Verify(disk_, "/sst/p2"), "m", "m");
  disk_.MarkBadRange("/sst/p2", 1, 1);
  EXPECT_TRUE(partitions_.ValidateWindow().ok());
  EXPECT_EQ(partitions_.ValidateWindow().code(), wdg::StatusCode::kCorruption);
  EXPECT_TRUE(partitions_.ValidateWindow().ok());
  EXPECT_EQ(partitions_.ValidateWindow("/sst/ghost").code(), wdg::StatusCode::kNotFound);
}

TEST_F(PartitionTest, ValidateCatchesCorruption) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p1", {{"a", {"payload", false}}}).ok());
  partitions_.Register(Index::Verify(disk_, "/sst/p1"), "a", "a");
  disk_.MarkBadRange("/sst/p1", 1, 2);
  EXPECT_EQ(partitions_.Validate("/sst/p1").code(), wdg::StatusCode::kCorruption);
}

TEST_F(PartitionTest, UnknownPartitionIsNotFound) {
  EXPECT_EQ(partitions_.Validate("/sst/ghost").code(), wdg::StatusCode::kNotFound);
}

TEST_F(PartitionTest, RangeOrderInvariant) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p1", {{"a", {"1", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p2", {{"m", {"2", false}}}).ok());
  partitions_.Register(Index::Verify(disk_, "/sst/p1"), "a", "f");
  partitions_.Register(Index::Verify(disk_, "/sst/p2"), "m", "z");
  EXPECT_TRUE(partitions_.CheckRangesSorted().ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p3", {{"c", {"3", false}}}).ok());
  partitions_.Register(Index::Verify(disk_, "/sst/p3"), "c", "d");  // out of order
  EXPECT_FALSE(partitions_.CheckRangesSorted().ok());
}

using MaintenanceTest = KvsDiskFixture;

// Waits until `pred` holds or 5 s pass; returns whether it held.
template <typename Pred>
bool WaitUntil(Pred pred) {
  const wdg::TimeNs deadline = wdg::RealClock::Instance().NowNs() + wdg::Sec(5);
  while (!pred()) {
    if (wdg::RealClock::Instance().NowNs() > deadline) {
      return false;
    }
    wdg::RealClock::Instance().SleepFor(wdg::Ms(2));
  }
  return true;
}

TEST_F(MaintenanceTest, PartitionUnregisteredMidValidationIsNotAFailure) {
  wdg::SimNet net(clock_, injector_);
  KvsOptions options;
  options.in_memory = true;  // no flusher or compaction of its own
  options.maintenance_poll = wdg::Ms(5);
  KvsNode node(clock_, disk_, net, options);
  const std::string gone = "/kvs/sst/gone.sst";
  ASSERT_TRUE(SsTable::Write(disk_, gone, {{"a", {"1", false}}}).ok());
  node.partitions().Register(Index::Verify(disk_, gone), "a", "a");
  // Hold the maintenance loop inside Validate, after it took its snapshot,
  // and unregister the partition there, as a compaction would.
  wdg::FaultSpec hold;
  hold.id = "hold";
  hold.site_pattern = "kvs.partition.validate";
  hold.kind = wdg::FaultKind::kHang;
  injector_.Inject(hold);
  // No ASSERT until the hold is removed: Stop() would wait on the held loop.
  EXPECT_TRUE(node.Start().ok());
  const bool held = WaitUntil([&] { return injector_.parked_thread_count() == 1; });
  node.partitions().Unregister(gone);
  EXPECT_TRUE(disk_.Delete(gone).ok());
  wdg::Gauge* tick = node.metrics().GetGauge("kvs.maintenance.last_tick_ns");
  const double held_tick = tick->Value();
  injector_.Remove("hold");
  ASSERT_TRUE(held);
  // The next tick starts after the held validation was judged.
  ASSERT_TRUE(WaitUntil([&] { return tick->Value() > held_tick; }));
  wdg::Counter* failures = node.metrics().GetCounter("kvs.partition.validate_failures");
  EXPECT_EQ(failures->Value(), 0);

  // A registered partition whose bytes changed still counts, by CRC and by size.
  const std::string live = "/kvs/sst/live.sst";
  ASSERT_TRUE(SsTable::Write(disk_, live, {{"m", {"2", false}}}).ok());
  node.partitions().Register(Index::Verify(disk_, live), "m", "m");
  disk_.MarkBadRange(live, 1, 1);
  EXPECT_TRUE(WaitUntil([&] { return failures->Value() >= 1; }));
  disk_.ClearBadRanges();
  ASSERT_TRUE(disk_.Append(live, "x").ok());
  const int64_t after_crc = failures->Value();
  EXPECT_TRUE(WaitUntil([&] { return failures->Value() > after_crc; }));
  node.Stop();
}

class FlusherTest : public KvsDiskFixture {
 protected:
  FlusherTest()
      : index_(disk_, memtable_), partitions_(disk_),
        flusher_(clock_, disk_, memtable_, index_, partitions_, hooks_, metrics_, Options()) {}
  static FlusherOptions Options() {
    FlusherOptions options;
    options.flush_threshold_bytes = 64;
    options.poll_interval = wdg::Ms(5);
    options.table_dir = "/sst";
    return options;
  }
  Memtable memtable_;
  Index index_;
  PartitionManager partitions_;
  wdg::HookSet hooks_;
  wdg::MetricsRegistry metrics_;
  Flusher flusher_;
};

TEST_F(FlusherTest, FlushMovesDataToTable) {
  memtable_.Set("k1", std::string(100, 'x'));
  ASSERT_TRUE(flusher_.FlushOnce().ok());
  EXPECT_EQ(memtable_.EntryCount(), 0u);
  ASSERT_EQ(index_.Tables().size(), 1u);
  EXPECT_EQ((*index_.Get("k1"))->size(), 100u);
  EXPECT_EQ(partitions_.Partitions().size(), 1u);
  EXPECT_EQ(flusher_.flush_count(), 1);
}

TEST_F(FlusherTest, BelowThresholdIsNoop) {
  memtable_.Set("k", "tiny");
  ASSERT_TRUE(flusher_.FlushOnce().ok());
  EXPECT_EQ(index_.Tables().size(), 0u);
  EXPECT_EQ(memtable_.EntryCount(), 1u);
  ASSERT_TRUE(flusher_.FlushOnce(/*force=*/true).ok());
  EXPECT_EQ(index_.Tables().size(), 1u);
}

TEST_F(FlusherTest, FailedFlushRestoresMemtable) {
  memtable_.Set("k1", std::string(100, 'x'));
  wdg::FaultSpec spec;
  spec.id = "werr";
  spec.site_pattern = "disk.create";
  spec.kind = wdg::FaultKind::kError;
  injector_.Inject(spec);
  EXPECT_FALSE(flusher_.FlushOnce().ok());
  injector_.ClearAll();
  EXPECT_EQ(memtable_.EntryCount(), 1u);  // data restored, not lost
  ASSERT_TRUE(flusher_.FlushOnce().ok());
  EXPECT_EQ(**index_.Get("k1"), std::string(100, 'x'));
}

// A one-shot error on the `after`-th disk.read from now (after_n_hits counts
// a site's hits since the injector started).
static wdg::FaultSpec ReadErrorAfter(wdg::FaultInjector& injector, const std::string& id,
                                     int64_t after) {
  wdg::FaultSpec spec;
  spec.id = id;
  spec.site_pattern = "disk.read";
  spec.kind = wdg::FaultKind::kError;
  spec.error_code = wdg::StatusCode::kUnavailable;
  spec.after_n_hits = injector.SiteHits("disk.read") + after;
  spec.max_fires = 1;
  return spec;
}

// A registered table whose verification read may have failed: once the
// fault is spent the table validates, and a rotten byte still fails it.
static void ExpectValidatesOnceFaultIsSpent(wdg::FaultInjector& injector,
                                            wdg::SimDisk& disk, PartitionManager& partitions,
                                            const std::string& fault_id,
                                            const std::string& path) {
  EXPECT_TRUE(partitions.Registered(path));
  if (injector.FireCount(fault_id) == 0) {  // the fault waits for the next read
    EXPECT_EQ(partitions.Validate(path).code(), wdg::StatusCode::kUnavailable);
  }
  EXPECT_EQ(injector.FireCount(fault_id), 1);
  EXPECT_TRUE(partitions.Validate(path).ok());
  disk.MarkBadRange(path, 5, 1);
  EXPECT_EQ(partitions.Validate(path).code(), wdg::StatusCode::kCorruption);
  disk.ClearBadRanges();
}

TEST_F(FlusherTest, FailedVerificationReadStillRegistersTheTable) {
  // The table is written and indexed before it is read back: a read that
  // fails then does not fail the flush or leave the table unchecked.
  for (const int64_t after : {0, 1}) {
    SCOPED_TRACE(after);
    const std::string key = wdg::StrFormat("k%lld", static_cast<long long>(after));
    memtable_.Set(key, std::string(100, 'x'));
    const std::string id = wdg::StrFormat("rerr%lld", static_cast<long long>(after));
    injector_.Inject(ReadErrorAfter(injector_, id, after));
    ASSERT_TRUE(flusher_.FlushOnce().ok());
    ExpectValidatesOnceFaultIsSpent(injector_, disk_, partitions_, id, index_.Tables().back());
    EXPECT_EQ(**index_.Get(key), std::string(100, 'x'));
  }
}

TEST_F(FlusherTest, FlushReadsTheNewTableOnce) {
  for (int i = 0; i < 40; ++i) {
    memtable_.Set(wdg::StrFormat("k%02d", i), std::string(200, 'x'));
  }
  wdg::Counter* bytes_read = disk_.metrics().GetCounter("disk.bytes_read");
  const int64_t before = bytes_read->Value();
  ASSERT_TRUE(flusher_.FlushOnce().ok());
  EXPECT_EQ(bytes_read->Value() - before, *disk_.Size(index_.Tables().back()));
  EXPECT_EQ(partitions_.Partitions().size(), 1u);
}

TEST_F(FlusherTest, KeyStaysReadableThroughoutFlush) {
  memtable_.Set("k1", std::string(100, 'x'));
  // Slow the SSTable write down so the flush window is wide open.
  wdg::FaultSpec spec;
  spec.id = "slowwrite";
  spec.site_pattern = "disk.create";
  spec.kind = wdg::FaultKind::kDelay;
  spec.delay = wdg::Ms(60);
  injector_.Inject(spec);
  std::atomic<bool> done{false};
  wdg::JoiningThread flush_thread([&] {
    EXPECT_TRUE(flusher_.FlushOnce().ok());
    done.store(true);
  });
  // Before the two-phase flush, the drained key was in neither the memtable
  // nor the table list for the whole write: concurrent Gets returned
  // NOT_FOUND for a durably-written key (the campaign's API probe caught it).
  while (!done.load()) {
    const auto value = index_.Get("k1");
    ASSERT_TRUE(value.ok());
    ASSERT_TRUE(value->has_value());
  }
  flush_thread.Join();
  EXPECT_EQ(**index_.Get("k1"), std::string(100, 'x'));
}

TEST_F(FlusherTest, FailureStreakLogsOnceAndRecoveryOnce) {
  wdg::CaptureSink sink;
  wdg::Logger::Instance().AddSink(&sink);
  wdg::FaultSpec spec;
  spec.id = "werr";
  spec.site_pattern = "disk.create";
  spec.kind = wdg::FaultKind::kError;
  injector_.Inject(spec);
  memtable_.Set("k1", std::string(100, 'x'));
  flusher_.Start();
  wdg::Counter* errors = metrics_.GetCounter("kvs.flusher.errors");
  while (errors->Value() < 10) {
    clock_.SleepFor(wdg::Ms(5));
  }
  injector_.ClearAll();
  while (flusher_.flush_count() == 0) {
    clock_.SleepFor(wdg::Ms(5));
  }
  flusher_.Stop();
  wdg::Logger::Instance().RemoveSink(&sink);
  // Every failed pass still counts, but the streak logs one line when it
  // starts and one, with its length, when a flush succeeds again.
  EXPECT_EQ(CountLogLines(sink, "flush failed"), 1u);
  EXPECT_EQ(CountLogLines(sink, wdg::StrFormat("flush recovered after %lld failed attempts",
                                               static_cast<long long>(errors->Value()))),
            1u);
}

TEST_F(FlusherTest, HookFiresWhenArmed) {
  hooks_.Arm("FlushMemtable:1", "FlushLoop_ctx");
  memtable_.Set("k1", std::string(100, 'x'));
  ASSERT_TRUE(flusher_.FlushOnce().ok());
  wdg::CheckContext* ctx = hooks_.Context("FlushLoop_ctx");
  EXPECT_TRUE(ctx->ready());
  EXPECT_EQ(*ctx->Get(kvs::keys::EntryCount()), 1);
  EXPECT_TRUE(ctx->Get(kvs::keys::FlushFile()).has_value());
}

TEST_F(FlusherTest, BackgroundLoopFlushesOnThreshold) {
  flusher_.Start();
  memtable_.Set("big", std::string(200, 'y'));
  clock_.SleepFor(wdg::Ms(60));
  flusher_.Stop();
  EXPECT_GE(flusher_.flush_count(), 1);
}

class CompactionTest : public KvsDiskFixture {
 protected:
  CompactionTest()
      : index_(disk_, memtable_), partitions_(disk_),
        compaction_(clock_, disk_, index_, partitions_, hooks_, metrics_, Options()) {}
  static CompactionOptions Options() {
    CompactionOptions options;
    options.max_tables = 2;
    options.poll_interval = wdg::Ms(5);
    options.table_dir = "/sst";
    return options;
  }
  void WriteTable(const std::string& path, const std::string& key, const std::string& value,
                  bool tombstone = false) {
    ASSERT_TRUE(SsTable::Write(disk_, path, {{key, {value, tombstone}}}).ok());
    partitions_.Register(index_.AddTable(path), key, key);
  }
  Memtable memtable_;
  Index index_;
  PartitionManager partitions_;
  wdg::HookSet hooks_;
  wdg::MetricsRegistry metrics_;
  CompactionManager compaction_;
};

TEST_F(CompactionTest, MergesTablesAndDropsTombstones) {
  WriteTable("/sst/1", "a", "v1");
  WriteTable("/sst/2", "a", "v2");     // newer value wins
  WriteTable("/sst/3", "b", "", true);  // tombstone drops out
  ASSERT_TRUE(compaction_.CompactOnce().ok());
  ASSERT_EQ(index_.Tables().size(), 1u);
  EXPECT_EQ(**index_.Get("a"), "v2");
  EXPECT_FALSE(index_.Get("b")->has_value());
  EXPECT_FALSE(disk_.Exists("/sst/1"));
  EXPECT_EQ(compaction_.compaction_count(), 1);
}

TEST_F(CompactionTest, FailedVerificationReadStillRegistersTheMergedTable) {
  // The merged table is written and swapped into the index before it is
  // read back: a read that fails then does not fail the compaction.
  for (const int64_t after : {0, 1}) {
    SCOPED_TRACE(after);
    for (const char* key : {"a", "b", "c"}) {
      WriteTable(wdg::StrFormat("/sst/%s%lld", key, static_cast<long long>(after)), key,
                 "v");
    }
    // CompactOnce reads each input once before it writes the merged table.
    const auto inputs = static_cast<int64_t>(index_.Tables().size());
    const std::string id = wdg::StrFormat("rerr%lld", static_cast<long long>(after));
    injector_.Inject(ReadErrorAfter(injector_, id, inputs + after));
    ASSERT_TRUE(compaction_.CompactOnce().ok());
    ASSERT_EQ(index_.Tables().size(), 1u);
    ExpectValidatesOnceFaultIsSpent(injector_, disk_, partitions_, id, index_.Tables().front());
    EXPECT_EQ(**index_.Get("b"), "v");
  }
}

TEST_F(CompactionTest, CompactionReadsEachTableOnce) {
  for (int t = 0; t < 3; ++t) {
    std::vector<std::pair<std::string, MemEntry>> entries;
    for (int i = t; i < 60; i += 2) {
      entries.emplace_back(wdg::StrFormat("k%02d", i), MemEntry{std::string(150, 'x'), false});
    }
    const std::string path = wdg::StrFormat("/sst/%d", t);
    ASSERT_TRUE(SsTable::Write(disk_, path, entries).ok());
    partitions_.Register(index_.AddTable(path), entries.front().first, entries.back().first);
  }
  int64_t inputs = 0;
  for (const std::string& path : index_.Tables()) {
    inputs += *disk_.Size(path);
  }
  wdg::Counter* bytes_read = disk_.metrics().GetCounter("disk.bytes_read");
  const int64_t before = bytes_read->Value();
  ASSERT_TRUE(compaction_.CompactOnce().ok());
  ASSERT_EQ(index_.Tables().size(), 1u);
  EXPECT_EQ(bytes_read->Value() - before, inputs + *disk_.Size(index_.Tables().front()));
  EXPECT_EQ(partitions_.Partitions().size(), 1u);
}

TEST_F(CompactionTest, AtOrBelowMaxIsNoop) {
  WriteTable("/sst/1", "a", "1");
  WriteTable("/sst/2", "b", "2");
  ASSERT_TRUE(compaction_.CompactOnce().ok());
  EXPECT_EQ(index_.Tables().size(), 2u);
}

TEST_F(CompactionTest, InjectedMergeHangDetectableViaProbe) {
  WriteTable("/sst/1", "a", "1");
  wdg::FaultSpec spec;
  spec.id = "stuck";
  spec.site_pattern = "compact.merge";
  spec.kind = wdg::FaultKind::kError;  // error variant keeps the test instant
  spec.error_code = wdg::StatusCode::kInternal;
  injector_.Inject(spec);
  EXPECT_FALSE(compaction_.MergeProbe("checker").ok());
  injector_.ClearAll();
  EXPECT_TRUE(compaction_.MergeProbe("checker").ok());
}

TEST_F(CompactionTest, GetPropagatesTrulyMissingTable) {
  // A listed table whose file is gone while the list is stable is damage,
  // not a compaction race: Index::Get must not silently report "no value".
  WriteTable("/sst/1", "a", "1");
  ASSERT_TRUE(disk_.Delete("/sst/1").ok());
  const auto result = index_.Get("a");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), wdg::StatusCode::kNotFound);
}

TEST_F(CompactionTest, MergeProbeToleratesConcurrentlyCompactedTable) {
  // The probe snapshots the table list, then loads; a concurrent CompactOnce
  // can delete a listed table in between. Simulate the stale snapshot by
  // deleting a file out from under the index: progress, not a fault.
  WriteTable("/sst/1", "a", "1");
  WriteTable("/sst/2", "b", "2");
  ASSERT_TRUE(disk_.Delete("/sst/1").ok());
  EXPECT_TRUE(compaction_.MergeProbe("checker").ok());
}

TEST_F(CompactionTest, OutOfOrderTableIsCorruptionForCompactionAndProbe) {
  WriteTable("/sst/1", "a", "1");
  // A descending table with a valid CRC: only the order check can refuse it.
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/2", {{"c", {"3", false}}, {"b", {"2", false}}}).ok());
  index_.AddTable("/sst/2");
  WriteTable("/sst/3", "d", "4");
  EXPECT_EQ(compaction_.MergeProbe("checker").code(), wdg::StatusCode::kCorruption);
  EXPECT_EQ(compaction_.CompactOnce().code(), wdg::StatusCode::kCorruption);
  EXPECT_EQ(index_.Tables().size(), 3u);  // nothing replaced
  EXPECT_EQ(compaction_.compaction_count(), 0);
}

TEST_F(CompactionTest, MergeProbePassesWhileCompactionRuns) {
  // The probe reads tables that a concurrent CompactOnce replaces and
  // deletes: every probe run passes and no compaction loses a write.
  std::atomic<bool> done{false};
  std::atomic<int> probes{0};
  wdg::JoiningThread prober([&] {
    while (!done.load()) {
      const wdg::Status status = compaction_.MergeProbe("checker");
      EXPECT_TRUE(status.ok()) << status.ToString();
      probes.fetch_add(1);
    }
  });
  constexpr int kKeys = 8;
  int round = 0;
  for (; round < 40 || probes.load() < 40; ++round) {
    WriteTable(wdg::StrFormat("/sst/r%04d", round), wdg::StrFormat("k%d", round % kKeys),
               wdg::StrFormat("v%d", round));
    ASSERT_TRUE(compaction_.CompactOnce(/*force=*/true).ok());
  }
  done.store(true);
  prober.Join();
  ASSERT_EQ(index_.Tables().size(), 1u);
  for (int last = round - kKeys; last < round; ++last) {
    EXPECT_EQ(**index_.Get(wdg::StrFormat("k%d", last % kKeys)), wdg::StrFormat("v%d", last));
  }
}

TEST_F(CompactionTest, FailureStreakLogsOnce) {
  wdg::CaptureSink sink;
  wdg::Logger::Instance().AddSink(&sink);
  WriteTable("/sst/1", "a", "1");
  WriteTable("/sst/2", "b", "2");
  WriteTable("/sst/3", "c", "3");
  wdg::FaultSpec spec;
  spec.id = "merr";
  spec.site_pattern = "compact.merge";
  spec.kind = wdg::FaultKind::kError;
  injector_.Inject(spec);
  compaction_.Start();
  wdg::Counter* errors = metrics_.GetCounter("kvs.compaction.errors");
  while (errors->Value() < 2) {  // the same tables are retried once a second
    clock_.SleepFor(wdg::Ms(5));
  }
  injector_.ClearAll();
  while (compaction_.compaction_count() == 0) {
    clock_.SleepFor(wdg::Ms(5));
  }
  compaction_.Stop();
  wdg::Logger::Instance().RemoveSink(&sink);
  // Every failed pass still counts, but the streak logs one line when it
  // starts and one, with its length, when a compaction succeeds again.
  EXPECT_EQ(CountLogLines(sink, "compaction failed"), 1u);
  EXPECT_EQ(CountLogLines(sink, wdg::StrFormat("compaction recovered after %lld failed attempts",
                                               static_cast<long long>(errors->Value()))),
            1u);
  EXPECT_EQ(index_.Tables().size(), 1u);
}

TEST_F(CompactionTest, CorruptTableIsNotReReadEveryPoll) {
  WriteTable("/sst/1", "a", "1");
  WriteTable("/sst/2", "b", "2");
  WriteTable("/sst/3", "c", "3");
  disk_.MarkBadRange("/sst/2", 1, 1);  // stays corrupt: every attempt fails
  wdg::Counter* errors = metrics_.GetCounter("kvs.compaction.errors");
  wdg::Counter* bytes_read = disk_.metrics().GetCounter("disk.bytes_read");
  wdg::Gauge* tick = metrics_.GetGauge("kvs.compaction.last_tick_ns");
  compaction_.Start();
  ASSERT_TRUE(WaitUntil([&] { return errors->Value() >= 1; }));
  const wdg::TimeNs failed_at = clock_.NowNs();
  const int64_t bytes_after_failure = bytes_read->Value();
  // 20 polls of 5 ms over the same tables: no attempt, so no read.
  for (int poll = 0; poll < 20; ++poll) {
    const double seen = tick->Value();
    ASSERT_TRUE(WaitUntil([&] { return tick->Value() > seen; }));
  }
  ASSERT_LT(clock_.NowNs() - failed_at, wdg::Ms(900)) << "too slow to stay inside the retry period";
  EXPECT_EQ(bytes_read->Value(), bytes_after_failure);
  EXPECT_EQ(errors->Value(), 1);
  // A new flush changes the table set: the next poll tries again.
  WriteTable("/sst/4", "d", "4");
  const int64_t bytes_after_flush = bytes_read->Value();
  ASSERT_TRUE(WaitUntil([&] { return errors->Value() >= 2; }));
  EXPECT_GT(bytes_read->Value(), bytes_after_flush);
  compaction_.Stop();
}

TEST_F(CompactionTest, BackgroundLoopCompacts) {
  WriteTable("/sst/1", "a", "1");
  WriteTable("/sst/2", "b", "2");
  WriteTable("/sst/3", "c", "3");
  compaction_.Start();
  clock_.SleepFor(wdg::Ms(80));
  compaction_.Stop();
  EXPECT_EQ(index_.Tables().size(), 1u);
}

// What one run of a mimic costs: disk bytes read and heap allocations.
struct MimicCost {
  int64_t bytes_read = 0;
  int64_t allocs = 0;
};

// The three table mimics, run through the real executors over a node that
// holds two tables of the kvs-write shape at `scale` times the data: an older
// table of 640 x 100 B records (~77 KB) and a newer one holding every fifth
// key. The context names a key inside both tables' ranges and the older
// table, so every mimic reads real data.
static std::map<std::string, MimicCost> TableMimicCosts(int scale) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::FaultInjector injector(clock);
  wdg::DiskOptions disk_options;
  disk_options.base_latency = 0;
  disk_options.per_kb_latency = 0;
  wdg::SimDisk disk(clock, injector, disk_options);
  wdg::SimNet net(clock, injector);
  KvsNode node(clock, disk, net);
  awd::OpExecutorRegistry registry;
  RegisterOpExecutors(registry, node);
  const int keys = 640 * scale;
  for (int stride : {1, 5}) {
    std::vector<std::pair<std::string, MemEntry>> entries;
    for (int key = 0; key < keys; key += stride) {
      entries.emplace_back(wdg::StrFormat("key%06d", key), MemEntry{std::string(100, 'v'), false});
    }
    const std::string path = wdg::StrFormat("/kvs/sst/%06d.sst", stride);
    EXPECT_TRUE(SsTable::Write(disk, path, entries).ok());
    node.partitions().Register(node.index().AddTable(path), entries.front().first,
                               entries.back().first);
  }
  wdg::CheckContext ctx("mimic");
  ctx.Set(keys::Key(), "key000003");
  ctx.Set(keys::Table(), "/kvs/sst/000001.sst");
  ctx.MarkReady(clock.NowNs());
  wdg::Counter* bytes_read = disk.metrics().GetCounter("disk.bytes_read");
  std::map<std::string, MimicCost> costs;
  for (const char* site : {"index.lookup", "compact.merge", "kvs.partition.validate"}) {
    awd::ReducedOp op;
    op.site = site;
    EXPECT_TRUE(registry.Execute(op, ctx, "checker").ok()) << site;  // warm the fault site
    constexpr int kRuns = 4;
    const int64_t bytes_before = bytes_read->Value();
    const int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int run = 0; run < kRuns; ++run) {
      EXPECT_TRUE(registry.Execute(op, ctx, "checker").ok()) << site;
    }
    const int64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
    const int64_t bytes = bytes_read->Value() - bytes_before;
    EXPECT_EQ(allocs % kRuns, 0) << site << ": " << allocs << " allocations over " << kRuns;
    EXPECT_EQ(bytes % kRuns, 0) << site << ": " << bytes << " bytes over " << kRuns;
    costs[site] = MimicCost{bytes / kRuns, allocs / kRuns};
  }
  return costs;
}

TEST(TableMimicBoundTest, TableMimicsReadAndAllocateTheSameAtAnyDataSize) {
  const auto at_1x = TableMimicCosts(1);
  const auto at_10x = TableMimicCosts(10);
  for (const auto& [site, cost] : at_1x) {
    EXPECT_EQ(cost.bytes_read, at_10x.at(site).bytes_read) << site;
    EXPECT_EQ(cost.allocs, at_10x.at(site).allocs) << site;
    EXPECT_GT(cost.bytes_read, 0) << site;
  }
  // One block of each table; two blocks of each of the two tables; one
  // window of the older table's blocks: two blocks of 34 118-byte records.
  EXPECT_LE(at_1x.at("index.lookup").bytes_read, static_cast<int64_t>(2 * kSsBlockBytes));
  EXPECT_LE(at_1x.at("compact.merge").bytes_read, static_cast<int64_t>(4 * kSsBlockBytes));
  EXPECT_EQ(at_1x.at("kvs.partition.validate").bytes_read, 2 * 34 * 118);
  EXPECT_LE(at_1x.at("kvs.partition.validate").bytes_read,
            static_cast<int64_t>(PartitionManager::kWindowBytes));
  // The merge allocates two read buffers and the table snapshot, run and
  // cursor vectors, whatever the table size.
  EXPECT_EQ(at_1x.at("compact.merge").allocs, 2 + 3);
}

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() : injector_(clock_), net_(clock_, injector_, FastNet()) {}
  static wdg::NetOptions FastNet() {
    wdg::NetOptions options;
    options.base_latency = wdg::Us(20);
    return options;
  }
  ReplicationOptions Options() {
    ReplicationOptions options;
    options.followers = {"f1"};
    options.poll_interval = wdg::Ms(5);
    options.ack_timeout = wdg::Ms(100);
    return options;
  }
  wdg::RealClock& clock_ = wdg::RealClock::Instance();
  wdg::FaultInjector injector_;
  wdg::SimNet net_;
  wdg::HookSet hooks_;
  wdg::MetricsRegistry metrics_;
};

TEST_F(ReplicationTest, BatchesReachFollower) {
  wdg::Endpoint* follower = net_.CreateEndpoint("f1");
  ReplicationEngine engine(clock_, net_, "leader", hooks_, metrics_, Options());
  engine.Start();
  std::thread follower_thread([&] {
    const auto msg = follower->Recv(wdg::Sec(5));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->type, kMsgReplicate);
    EXPECT_NE(msg->payload.find("SET"), std::string::npos);
    ASSERT_TRUE(follower->Reply(*msg, "ack").ok());
  });
  Request req;
  req.op = OpType::kSet;
  req.key = "k";
  req.value = "v";
  engine.Enqueue(req);
  follower_thread.join();
  clock_.SleepFor(wdg::Ms(20));
  engine.Stop();
  EXPECT_GE(engine.batches_sent(), 1);
  EXPECT_EQ(engine.ack_failures(), 0);
}

TEST_F(ReplicationTest, MissingAckCountsFailure) {
  net_.CreateEndpoint("f1");  // mute follower: never acks
  ReplicationEngine engine(clock_, net_, "leader", hooks_, metrics_, Options());
  engine.Start();
  Request req;
  req.op = OpType::kSet;
  req.key = "k";
  engine.Enqueue(req);
  clock_.SleepFor(wdg::Ms(200));
  engine.Stop();
  EXPECT_GE(engine.ack_failures(), 1);
}

TEST_F(ReplicationTest, FailureStreakLogsOnce) {
  wdg::CaptureSink sink;
  wdg::Logger::Instance().AddSink(&sink);
  net_.CreateEndpoint("f1");  // mute follower: every batch times out
  ReplicationEngine engine(clock_, net_, "leader", hooks_, metrics_, Options());
  engine.Start();
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.op = OpType::kSet;
    req.key = wdg::StrFormat("k%d", i);
    engine.Enqueue(req);
    while (engine.ack_failures() <= i) {
      clock_.SleepFor(wdg::Ms(5));
    }
  }
  engine.Stop();
  wdg::Logger::Instance().RemoveSink(&sink);
  EXPECT_EQ(engine.ack_failures(), 3);
  EXPECT_EQ(CountLogLines(sink, "replication batch failed"), 1u);
}

TEST_F(ReplicationTest, HookCapturesFollowerAndBatchSize) {
  wdg::Endpoint* follower = net_.CreateEndpoint("f1");
  hooks_.Arm("ReplicateBatch:1", "ReplicationLoop_ctx");
  ReplicationEngine engine(clock_, net_, "leader", hooks_, metrics_, Options());
  engine.Start();
  std::thread follower_thread([&] {
    const auto msg = follower->Recv(wdg::Sec(5));
    if (msg.has_value()) {
      (void)follower->Reply(*msg, "ack");
    }
  });
  Request req;
  req.op = OpType::kSet;
  req.key = "k";
  engine.Enqueue(req);
  follower_thread.join();
  engine.Stop();
  wdg::CheckContext* ctx = hooks_.Context("ReplicationLoop_ctx");
  EXPECT_TRUE(ctx->ready());
  EXPECT_EQ(*ctx->Get(kvs::keys::Follower()), "f1");
  EXPECT_EQ(*ctx->Get(kvs::keys::BatchSize()), 1);
}

}  // namespace
}  // namespace kvs
