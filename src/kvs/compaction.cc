#include "src/kvs/compaction.h"

#include "src/kvs/ctx_keys.h"

#include <span>
#include <string_view>
#include <vector>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/kvs/sstable.h"

namespace kvs {

CompactionManager::CompactionManager(wdg::Clock& clock, wdg::SimDisk& disk, Index& index,
                                     PartitionManager& partitions, wdg::HookSet& hooks,
                                     wdg::MetricsRegistry& metrics, CompactionOptions options)
    : clock_(clock), disk_(disk), index_(index), partitions_(partitions), hooks_(hooks),
      metrics_(metrics), last_tick_ns_(metrics_.GetGauge("kvs.compaction.last_tick_ns")),
      options_(options) {}

void CompactionManager::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  thread_ = wdg::JoiningThread([this] { Loop(); });
}

void CompactionManager::Stop() {
  stop_.Request();
  thread_.Join();
  started_ = false;
}

void CompactionManager::Loop() {
  // A failed compaction is retried when the index's table set changes, or
  // else once per kRetryPeriod: over the same tables (one that stays
  // corrupt, say) it would fail again after reading every table once more.
  // Like the flusher, the streak logs its first failure and its length on
  // recovery, not one line per attempt.
  constexpr wdg::DurationNs kRetryPeriod = wdg::Sec(1);
  int64_t failed_streak = 0;
  std::vector<std::string> failed_tables;  // the table set of the last failure
  wdg::TimeNs failed_at = 0;
  while (!stop_.WaitFor(options_.poll_interval)) {
    const wdg::TimeNs now = clock_.NowNs();
    last_tick_ns_->Set(static_cast<double>(now));
    std::vector<std::string> tables = index_.Tables();
    if (tables.size() <= options_.max_tables ||
        (failed_streak > 0 && tables == failed_tables && now - failed_at < kRetryPeriod)) {
      continue;
    }
    const wdg::Status status = CompactOnce();
    if (!status.ok()) {
      metrics_.GetCounter("kvs.compaction.errors")->Increment();
      if (failed_streak++ == 0) {
        WDG_LOG(kWarn) << "compaction failed: " << status;
      }
      failed_tables = std::move(tables);
      failed_at = now;
    } else if (failed_streak > 0) {
      WDG_LOG(kWarn) << "compaction recovered after " << failed_streak << " failed attempts";
      failed_streak = 0;
    }
  }
}

namespace {
// What MergeProbe reads of each table: whole blocks, so every byte it merges
// is CRC-checked.
constexpr size_t kProbePrefixBytes = 2 * kSsBlockBytes;

struct Survivors {
  size_t count = 0;
  std::string_view first_key;
  std::string_view last_key;
};

// The merge CompactOnce and MergeProbe share: the newest record of each key
// wins and tombstones drop out, since the merged table is the bottom level.
// Survivors go to `out` when given; the probe passes none and discards them.
Survivors MergeSurvivors(std::span<const SsRun> runs, SsTableBuilder* out) {
  Survivors survivors;
  SsMerge merge(runs);
  for (SsRecord record; merge.Next(record);) {
    if (record.tombstone) {
      continue;
    }
    if (survivors.count++ == 0) {
      survivors.first_key = record.key;
    }
    survivors.last_key = record.key;
    if (out != nullptr) {
      out->Add(record);
    }
  }
  return survivors;
}
}  // namespace

wdg::Status CompactionManager::CompactOnce(bool force) {
  const std::vector<std::string> tables = index_.Tables();
  if (!force && tables.size() <= options_.max_tables) {
    return wdg::Status::Ok();
  }
  if (tables.empty()) {
    return wdg::Status::Ok();
  }

  hooks_.Site("CompactTables:1")->Fire([&](wdg::CheckContext& ctx) {
    ctx.Set(keys::TableCount(), static_cast<int64_t>(tables.size()));
    ctx.MarkReady(clock_.NowNs());
  });

  // Read and verify every table, oldest first: the merge lets newer records
  // win. The runs own the bytes, so deleting the inputs below is safe.
  std::vector<SsRun> runs;
  runs.reserve(tables.size());
  size_t body_bytes = 0;
  for (const std::string& path : tables) {
    WDG_ASSIGN_OR_RETURN(SsRun run, SsRun::Read(disk_, path));
    body_bytes += run.body_size();
    runs.push_back(std::move(run));
  }

  // The merge itself is an instrumented, annotated-vulnerable operation.
  WDG_RETURN_IF_ERROR(disk_.injector().Act("compact.merge"));

  SsTableBuilder merged;
  merged.Reserve(body_bytes);
  const Survivors survivors = MergeSurvivors(runs, &merged);
  const std::string merged_path =
      wdg::StrFormat("%s/merged-%06lld.sst", options_.table_dir.c_str(),
                     static_cast<long long>(merged_seq_.fetch_add(1)));
  WDG_RETURN_IF_ERROR(merged.Write(disk_, merged_path));

  Index::TableRef merged_table = index_.ReplaceTables(tables, merged_path);
  for (const std::string& path : tables) {
    partitions_.Unregister(path);
    (void)disk_.Delete(path);
  }
  if (survivors.count > 0) {
    partitions_.Register(std::move(merged_table), std::string(survivors.first_key),
                         std::string(survivors.last_key));
  }
  compaction_count_.fetch_add(1);
  metrics_.GetCounter("kvs.compaction.compactions")->Increment();
  return wdg::Status::Ok();
}

wdg::Status CompactionManager::MergeProbe(const std::string& scratch_checker_name) const {
  // Shares fate with CompactOnce: same fault site and the same merge, but
  // over a bounded, block-CRC-verified prefix of the two oldest tables, and
  // the results go nowhere near the live index (isolation).
  WDG_RETURN_IF_ERROR(disk_.injector().Act("compact.merge"));
  std::vector<Index::TableRef> tables = index_.Snapshot();
  std::vector<SsRun> runs;
  runs.reserve(2);
  for (Index::TableRef& table : tables) {
    if (runs.size() >= 2) {
      break;  // a reduced merge: two tables suffice to exercise the logic
    }
    const auto map = index_.Verified(table);
    auto run = map.ok() ? SsRun::ReadPrefix(disk_, **map, kProbePrefixBytes)
                        : wdg::Result<SsRun>(map.status());
    if (run.status().code() == wdg::StatusCode::kNotFound) {
      // The table list is a snapshot: a concurrent CompactOnce on the
      // compaction thread can ReplaceTables + Delete a listed table before
      // this read runs. That is the system making progress, not a fault —
      // alarming here is exactly the stale-context mimic hazard, so skip it.
      continue;
    }
    WDG_RETURN_IF_ERROR(run.status());
    runs.push_back(std::move(*run));
  }
  (void)MergeSurvivors(runs, nullptr);
  (void)scratch_checker_name;
  return wdg::Status::Ok();
}

}  // namespace kvs
