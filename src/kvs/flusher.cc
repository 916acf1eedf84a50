#include "src/kvs/flusher.h"

#include "src/kvs/ctx_keys.h"

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/kvs/sstable.h"

namespace kvs {

Flusher::Flusher(wdg::Clock& clock, wdg::SimDisk& disk, Memtable& memtable, Index& index,
                 PartitionManager& partitions, wdg::HookSet& hooks,
                 wdg::MetricsRegistry& metrics, FlusherOptions options)
    : clock_(clock), disk_(disk), memtable_(memtable), index_(index), partitions_(partitions),
      hooks_(hooks), metrics_(metrics),
      last_tick_ns_(metrics_.GetGauge("kvs.flusher.last_tick_ns")), options_(options) {}

void Flusher::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  thread_ = wdg::JoiningThread([this] { Loop(); });
}

void Flusher::Stop() {
  stop_.Request();
  thread_.Join();
  started_ = false;
}

void Flusher::Loop() {
  // A failing flush is retried every pass; the streak logs its first failure
  // and its length on recovery, not one line per pass.
  int64_t failed_streak = 0;
  while (!stop_.WaitFor(options_.poll_interval)) {
    last_tick_ns_->Set(static_cast<double>(clock_.NowNs()));
    if (memtable_.ApproximateBytes() >= options_.flush_threshold_bytes) {
      const wdg::Status status = FlushOnce();
      if (!status.ok()) {
        metrics_.GetCounter("kvs.flusher.errors")->Increment();
        if (failed_streak++ == 0) {
          WDG_LOG(kWarn) << "flush failed: " << status;
        }
      } else if (failed_streak > 0) {
        WDG_LOG(kWarn) << "flush recovered after " << failed_streak << " failed attempts";
        failed_streak = 0;
      }
    }
  }
}

wdg::Status Flusher::FlushOnce(bool force) {
  if (!force && memtable_.ApproximateBytes() < options_.flush_threshold_bytes) {
    return wdg::Status::Ok();
  }
  // Serialize flushes; the flush mimic checker try-locks this same mutex.
  std::unique_lock<std::timed_mutex> flush_guard(memtable_.flush_lock());

  const std::string path =
      wdg::StrFormat("%s/%06lld.sst", options_.table_dir.c_str(),
                     static_cast<long long>(table_seq_.fetch_add(1)));
  // Two-phase: the drained entries stay readable through Memtable::Get until
  // the SSTable is registered in the index — a plain drain left a window
  // where a flushed key was in neither the memtable nor the table list, and
  // the campaign's API probe caught concurrent Gets returning NOT_FOUND for
  // durably-written keys.
  auto entries = memtable_.BeginFlush();
  if (entries.empty()) {
    memtable_.EndFlush();
    return wdg::Status::Ok();
  }

  // State synchronization: one-way context update for the flush checker.
  hooks_.Site("FlushMemtable:1")->Fire([&](wdg::CheckContext& ctx) {
    ctx.Set(keys::FlushFile(), path);
    ctx.Set(keys::EntryCount(), static_cast<int64_t>(entries.size()));
    ctx.MarkReady(clock_.NowNs());
  });

  const wdg::Status status = SsTable::Write(disk_, path, entries);
  if (!status.ok()) {
    // Put the data back; nothing is lost on a failed flush, and entries
    // overwritten while the flush ran keep their newer values.
    memtable_.AbortFlush();
    return status;
  }
  // The table is registered even if its verification read failed: it is
  // indexed, so it is a partition, and both verify it again on next use.
  partitions_.Register(index_.AddTable(path), entries.front().first, entries.back().first);
  memtable_.EndFlush();
  flush_count_.fetch_add(1);
  metrics_.GetCounter("kvs.flusher.flushes")->Increment();
  metrics_.GetGauge("kvs.flusher.last_flush_ns")->Set(static_cast<double>(clock_.NowNs()));
  if (on_flushed_) {
    on_flushed_();
  }
  return wdg::Status::Ok();
}

}  // namespace kvs
