// Concurrency torture for the Context API v2 hot path, designed to run under
// TSan (-DWDG_SANITIZE=thread; tools/ci.sh runs it in the TSan leg).
//
// N producer threads, each firing its own hook site against ONE shared
// context, each staging an M-key batch. The §3.1 invariant under test:
// checkers only ever observe fully-populated state — a Snapshot() must never
// see a torn batch (some keys from one flush, some from another), and the
// epoch must be monotone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/strings.h"
#include "src/watchdog/context.h"

namespace wdg {
namespace {

constexpr int kProducers = 8;   // N threads...
constexpr int kKeysPerBatch = 6;  // ...each staging M keys per hook fire

TEST(ContextConcurrencyTest, SnapshotNeverObservesTornBatch) {
  HookSet hooks;
  CheckContext* ctx = hooks.Context("shared_ctx");

  // Per-producer key groups, interned before the hot loops. Producer p is
  // the only writer of its group, and writes the same sequence number to
  // every key in one batch — any snapshot mixing two of p's batches is torn.
  std::vector<std::vector<ContextKey<int64_t>>> keys(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    for (int k = 0; k < kKeysPerBatch; ++k) {
      keys[p].push_back(ContextKey<int64_t>::Of(StrFormat("cc.p%d.k%d", p, k)));
    }
    hooks.Arm(StrFormat("site%d", p), "shared_ctx");
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      HookSite* site = hooks.Site(StrFormat("site%d", p));
      int64_t seq = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        site->Fire([&](CheckContext& c) {
          for (const auto& key : keys[p]) {
            c.Set(key, seq);
          }
          c.MarkReady(seq);
        });
        ++seq;
      }
    });
  }

  std::vector<std::thread> readers;
  std::atomic<int64_t> snapshots{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = ctx->SnapshotConsistent();
        // Epoch monotonicity across consecutive reads from one thread.
        ASSERT_GE(snapshot.epoch, last_epoch);
        last_epoch = snapshot.epoch;
        // Torn-batch check: within a snapshot, every key of a producer's
        // group carries the same sequence number.
        for (int p = 0; p < kProducers; ++p) {
          int found = 0;
          std::optional<int64_t> expected;
          for (int k = 0; k < kKeysPerBatch; ++k) {
            const auto it = snapshot.values.find(StrFormat("cc.p%d.k%d", p, k));
            if (it == snapshot.values.end()) {
              continue;
            }
            ++found;
            ASSERT_TRUE(std::holds_alternative<int64_t>(it->second));
            const int64_t seq = std::get<int64_t>(it->second);
            if (!expected.has_value()) {
              expected = seq;
            } else {
              ASSERT_EQ(seq, *expected) << "torn batch from producer " << p;
            }
          }
          // A batch lands whole or not at all: never a strict subset.
          ASSERT_TRUE(found == 0 || found == kKeysPerBatch)
              << "partial batch from producer " << p << ": " << found;
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Typed point-reads race the flushes too (per-cell seqlock read path).
  std::thread point_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int p = 0; p < kProducers; ++p) {
        (void)ctx->Get(keys[p][0]);
      }
    }
  });

  RealClock::Instance().SleepFor(Ms(300));
  stop = true;
  for (auto& t : producers) {
    t.join();
  }
  for (auto& t : readers) {
    t.join();
  }
  point_reader.join();

  EXPECT_GT(snapshots.load(), 50);
  EXPECT_TRUE(ctx->ready());
  // Final state: every group fully populated and internally consistent.
  const auto final_snapshot = ctx->SnapshotConsistent();
  EXPECT_GT(final_snapshot.epoch, 0u);
  for (int p = 0; p < kProducers; ++p) {
    for (int k = 1; k < kKeysPerBatch; ++k) {
      EXPECT_EQ(std::get<int64_t>(
                    final_snapshot.values.at(StrFormat("cc.p%d.k%d", p, k))),
                std::get<int64_t>(
                    final_snapshot.values.at(StrFormat("cc.p%d.k0", p))));
    }
  }
}

// Seqlock torture with every batch shape at once: a 3-key batch, a
// single-value batch, and a 2-key batch whose string is too long for the
// inline words and lives in the cell's spill block. All three go through the
// one flush (claim every cell, then store and publish). Each writer embeds
// the same sequence number in every value of a batch — the spill writer
// embeds it in both the string and a sibling int — so any torn or
// mixed-epoch observation is detectable. Run under the TSan CI leg: every
// read, inline or spilled, is an atomic-word load by construction.
TEST(ContextConcurrencyTest, SeqlockTortureMixedWriterShapes) {
  CheckContext ctx("torture");

  static const auto kBatchA = ContextKey<int64_t>::Of("tt.batch.a");
  static const auto kBatchB = ContextKey<int64_t>::Of("tt.batch.b");
  static const auto kBatchC = ContextKey<int64_t>::Of("tt.batch.c");
  static const auto kFast = ContextKey<int64_t>::Of("tt.fast");
  static const auto kBigStr = ContextKey<std::string>::Of("tt.big.str");
  static const auto kBigSeq = ContextKey<int64_t>::Of("tt.big.seq");

  std::atomic<bool> stop{false};

  // Writer 1: 3-key inline batches.
  std::thread batch_writer([&] {
    int64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ctx.Set(kBatchA, seq);
      ctx.Set(kBatchB, seq);
      ctx.Set(kBatchC, seq);
      ctx.MarkReady(seq);
      ++seq;
    }
  });

  // Writer 2: single-value batches.
  std::thread fast_writer([&] {
    int64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ctx.Set(kFast, seq);
      ctx.MarkReady(seq);
      ++seq;
    }
  });

  // Writer 3: 2-key batch where the string (> 48 bytes) lands in the spill
  // block; the trailing digits encode the same seq as the sibling int.
  std::thread spill_writer([&] {
    const std::string pad(64, 'p');
    int64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ctx.Set(kBigStr, pad + StrFormat("%lld", static_cast<long long>(seq)));
      ctx.Set(kBigSeq, seq);
      ctx.MarkReady(seq);
      ++seq;
    }
  });

  std::atomic<int64_t> snapshots{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      int64_t last_fast = -1;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = ctx.SnapshotConsistent();
        const auto a = snapshot.values.find("tt.batch.a");
        if (a != snapshot.values.end()) {
          ASSERT_EQ(std::get<int64_t>(snapshot.values.at("tt.batch.b")),
                    std::get<int64_t>(a->second));
          ASSERT_EQ(std::get<int64_t>(snapshot.values.at("tt.batch.c")),
                    std::get<int64_t>(a->second));
        }
        const auto big = snapshot.values.find("tt.big.str");
        if (big != snapshot.values.end()) {
          const std::string& text = std::get<std::string>(big->second);
          ASSERT_EQ(text.substr(64),
                    StrFormat("%lld", static_cast<long long>(std::get<int64_t>(
                                          snapshot.values.at("tt.big.seq")))));
        }
        // Single-value point reads: decoded value is never torn and, from
        // one thread, never goes backwards (single writer increments it).
        const auto fast = ctx.Get(kFast);
        if (fast.has_value()) {
          ASSERT_GE(*fast, last_fast);
          last_fast = *fast;
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  RealClock::Instance().SleepFor(Ms(300));
  stop = true;
  batch_writer.join();
  fast_writer.join();
  spill_writer.join();
  for (auto& t : readers) {
    t.join();
  }

  EXPECT_GT(snapshots.load(), 50);
  const auto stats = ctx.read_stats();
  // Fallbacks may or may not trigger under scheduler noise; optimistic
  // successes plus fallbacks must account for every completed snapshot.
  EXPECT_EQ(stats.snapshot_optimistic + stats.snapshot_fallbacks,
            snapshots.load());
}

// The bounded-retry fallback: four writers hammer the same two cells, so
// snapshot scans keep finding a claimed cell or a moved seq. SnapshotConsistent
// must burn its retries, raise the snapshot gate (holding new flushes back),
// and still return a coherent result.
TEST(ContextConcurrencyTest, SnapshotFallsBackUnderPersistentFlushChurn) {
  CheckContext ctx("fallback");
  static const auto kA = ContextKey<int64_t>::Of("fb.a");
  static const auto kB = ContextKey<int64_t>::Of("fb.b");
  ctx.Set(kA, 1);
  ctx.Set(kB, 1);
  ctx.MarkReady(1);

  // Churn writers: two-key batches as fast as they can flush, so snapshot
  // scans keep colliding with claimed cells.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      int64_t seq = 2;
      while (!stop.load(std::memory_order_relaxed)) {
        ctx.Set(kA, seq);
        ctx.Set(kB, seq);
        ctx.MarkReady(seq);
        ++seq;
      }
    });
  }

  int64_t completed = 0;
  const TimeNs deadline = RealClock::Instance().NowNs() + Ms(300);
  while (RealClock::Instance().NowNs() < deadline) {
    const auto snapshot = ctx.SnapshotConsistent();
    ASSERT_EQ(std::get<int64_t>(snapshot.values.at("fb.a")),
              std::get<int64_t>(snapshot.values.at("fb.b")));
    ++completed;
    if (ctx.read_stats().snapshot_fallbacks > 0 && completed > 100) {
      break;  // exercised both the retry burn and the gated scan
    }
  }
  stop = true;
  for (auto& t : writers) {
    t.join();
  }
  const auto stats = ctx.read_stats();
  EXPECT_GT(completed, 0);
  EXPECT_GT(stats.snapshot_retries + stats.snapshot_optimistic, 0);
  // Every snapshot completed one way or the other — none hung, none torn.
  EXPECT_EQ(stats.snapshot_optimistic + stats.snapshot_fallbacks, completed);
}

// Spill-block growth under readers: two writers rewrite one string key with
// lengths that cycle across the 48-byte inline boundary while their ceiling
// doubles every 512 writes (up to 4 KB), so cells keep switching between
// inline words and spill blocks and the blocks keep growing — each growth
// installs a new block while readers may still hold the old pointer. The
// string spells out its seq (which fixes its length and padding) and a
// sibling int carries the same seq in the same batch, so a reader checks
// both self-consistency (Get) and batch atomicity (snapshot).
std::string SpillValue(int64_t seq) {
  const int64_t ceiling = int64_t{64} << ((seq / 512) % 7);
  std::string value = StrFormat("%lld|", static_cast<long long>(seq));
  const size_t len = std::max(value.size(), static_cast<size_t>((seq * 37) % ceiling));
  value.resize(len, static_cast<char>('a' + seq % 26));
  return value;
}

TEST(ContextConcurrencyTest, SpillGrowthNeverTearsAString) {
  CheckContext ctx("spill");
  static const auto kStr = ContextKey<std::string>::Of("sg.str");
  static const auto kSeq = ContextKey<int64_t>::Of("sg.seq");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const int64_t seq = i * 2 + w;  // disjoint seq spaces per writer
        ctx.Set(kStr, SpillValue(seq));
        ctx.Set(kSeq, seq);
        ctx.MarkReady(seq);
      }
    });
  }

  std::atomic<int64_t> checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = ctx.SnapshotConsistent();
        const auto str = snapshot.values.find("sg.str");
        if (str != snapshot.values.end()) {
          const int64_t seq = std::get<int64_t>(snapshot.values.at("sg.seq"));
          ASSERT_EQ(std::get<std::string>(str->second), SpillValue(seq));
        }
        if (const auto value = ctx.Get(kStr); value.has_value()) {
          const long long seq = std::strtoll(value->c_str(), nullptr, 10);
          ASSERT_EQ(*value, SpillValue(seq));
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  RealClock::Instance().SleepFor(Ms(300));
  stop = true;
  for (auto& t : writers) {
    t.join();
  }
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_GT(checked.load(), 50);
  const int64_t last = *ctx.Get(kSeq);
  EXPECT_EQ(*ctx.Get(kStr), SpillValue(last));
}

// A fresh context's first batch also creates its cells' populated bits. A
// snapshot taken while that batch publishes must hold all of its keys or
// none: a reader that sees some cells populated and published but not the
// rest would return a strict subset of the batch.
TEST(ContextConcurrencyTest, FirstBatchLandsWholeOrNotAtAll) {
  constexpr int kKeys = 40;  // spans a chunk boundary
  std::vector<ContextKey<int64_t>> keys;
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back(ContextKey<int64_t>::Of(StrFormat("fb1.k%d", k)));
  }
  int partial = 0;
  for (int round = 0; round < 200 && partial == 0; ++round) {
    CheckContext ctx("first-batch");
    std::atomic<bool> reading{false};
    std::atomic<bool> written{false};
    std::thread reader([&] {
      reading.store(true, std::memory_order_release);
      bool last = false;
      while (!last) {
        last = written.load(std::memory_order_acquire);
        const size_t found = ctx.SnapshotConsistent().values.size();
        if (found != 0 && found != static_cast<size_t>(kKeys)) {
          ++partial;
        }
      }
    });
    while (!reading.load(std::memory_order_acquire)) {
    }
    for (const auto& key : keys) {
      ctx.Set(key, round);
    }
    ctx.MarkReady(round);
    written.store(true, std::memory_order_release);
    reader.join();
  }
  EXPECT_EQ(partial, 0);
}

TEST(ContextConcurrencyTest, EpochCountsFlushesExactly) {
  CheckContext ctx("c");
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  static const auto kSeq = ContextKey<int64_t>::Of("cc.epoch.seq");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        ctx.Set(kSeq, i);
        ctx.MarkReady(i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(ctx.epoch(), static_cast<uint64_t>(kThreads) * kRounds);
}

}  // namespace
}  // namespace wdg
