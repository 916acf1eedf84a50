#include "src/kvs/ir_model.h"

#include "src/autowd/standard_executors.h"

namespace kvs {

using awd::FunctionBuilder;
using awd::OpKind;

awd::Module DescribeIr(const KvsOptions& options) {
  awd::Module module("kvs");

  // --- request path ------------------------------------------------------
  module.AddFunction(FunctionBuilder("RequestLoop", "kvs.listener")
                         .LongRunning()
                         .LoopBegin()
                         .Op(OpKind::kNetRecv, "net.recv." + options.node_id, {"node"}, {"req"},
                             "endpoint.Recv()")
                         .Call("ApplyRequest", {"req"})
                         .LoopEnd()
                         .Build());
  module.AddFunction(FunctionBuilder("ApplyRequest", "kvs.executor")
                         .Param("req")
                         .Compute("decode request", {"req"}, {"key", "value"})
                         .Op(OpKind::kCompute, "index.lookup", {"key"}, {"entry"},
                             "index.Get(key)")
                         .Vulnerable()  // system-specific op tagged by the developer
                         .Call("WalAppend", {"key", "value"})
                         .Compute("memtable.Apply(key, value)", {"key", "value", "entry"})
                         .Return()
                         .Build());
  module.AddFunction(FunctionBuilder("WalAppend", "kvs.wal")
                         .Param("key")
                         .Param("value")
                         .Op(OpKind::kIoWrite, "disk.append", {"wal_path", "record_bytes"}, {},
                             "wal.Append(record)")
                         .Op(OpKind::kIoFsync, "disk.fsync", {"wal_path"}, {}, "wal fsync")
                         .Return()
                         .Build());

  // --- disk flusher -------------------------------------------------------
  module.AddFunction(FunctionBuilder("FlushLoop", "kvs.flusher")
                         .LongRunning()
                         .LoopBegin()
                         .Compute("memtable.bytes >= threshold?")
                         .Call("FlushMemtable")
                         .LoopEnd()
                         .Build());
  module.AddFunction(FunctionBuilder("FlushMemtable", "kvs.flusher")
                         .Op(OpKind::kLockAcquire, "lock.memtable.flush", {}, {},
                             "flush_lock.lock()")
                         .Op(OpKind::kIoCreate, "disk.create", {"flush_file"}, {},
                             "create sstable file")
                         .Op(OpKind::kIoWrite, "disk.write", {"flush_file", "entry_count"}, {},
                             "write sstable body+footer")
                         .Op(OpKind::kIoFsync, "disk.fsync", {"flush_file"}, {},
                             "fsync sstable")
                         .Op(OpKind::kLockRelease, "lock.memtable.flush")
                         .Compute("index.AddTable(flush_file)", {"flush_file"})
                         .Return()
                         .Build());

  // --- compaction ---------------------------------------------------------
  module.AddFunction(FunctionBuilder("CompactionLoop", "kvs.compaction")
                         .LongRunning()
                         .LoopBegin()
                         .Compute("tables > max?")
                         .Call("CompactTables")
                         .LoopEnd()
                         .Build());
  // The per-table load loop is unrolled here (three exemplars) — the shape
  // similar-op dedup collapses back to one ("invoke write() once", §4.1).
  module.AddFunction(FunctionBuilder("CompactTables", "kvs.compaction")
                         .Op(OpKind::kIoRead, "disk.read", {"table_count"}, {"entries"},
                             "load sstable[0]")
                         .Op(OpKind::kIoRead, "disk.read", {"table_count"}, {"entries"},
                             "load sstable[1]")
                         .Op(OpKind::kIoRead, "disk.read", {"table_count"}, {"entries"},
                             "load sstable[2]")
                         .Op(OpKind::kCompute, "compact.merge", {"table_count", "entries"},
                             {"merged"}, "merge entries")
                         .Vulnerable()
                         .Op(OpKind::kIoCreate, "disk.create", {}, {}, "create merged table")
                         .Op(OpKind::kIoWrite, "disk.write", {"merged"}, {},
                             "write merged table")
                         .Op(OpKind::kIoFsync, "disk.fsync", {}, {}, "fsync merged table")
                         .Return()
                         .Build());

  // --- replication ---------------------------------------------------------
  module.AddFunction(FunctionBuilder("ReplicationLoop", "kvs.replication")
                         .LongRunning()
                         .LoopBegin()
                         .Compute("collect batch from queue", {}, {"batch"})
                         .Call("ReplicateBatch", {"batch"})
                         .LoopEnd()
                         .Build());
  {
    FunctionBuilder replicate("ReplicateBatch", "kvs.replication");
    replicate.Param("batch");
    for (const wdg::NodeId& follower : options.followers) {
      replicate.Op(OpKind::kNetSend, "net.send." + follower, {"follower", "batch_size"}, {},
                   "Call(" + follower + ", replicate)");
    }
    if (options.followers.empty()) {
      // Standalone node: model a generic peer so the function is non-trivial.
      replicate.Compute("no followers configured");
    }
    replicate.Return();
    module.AddFunction(replicate.Build());
  }

  // --- partition maintenance ------------------------------------------------
  module.AddFunction(FunctionBuilder("PartitionMaintenance", "kvs.partition")
                         .LongRunning()
                         .LoopBegin()
                         .Op(OpKind::kCompute, "kvs.partition.validate", {"table"}, {},
                             "validate partition checksum")
                         .Vulnerable()
                         .LoopEnd()
                         .Build());

  return module;
}

awd::RedirectionPlan DescribeRedirections() {
  using awd::RedirectMode;
  awd::RedirectionPlan plan = awd::StandardRedirections();
  plan.entries.insert(
      plan.entries.end(),
      {
          {"disk.read", RedirectMode::kReadOnly, "reads the first registered SSTable"},
          {"index.lookup", RedirectMode::kReadOnly, "watchdog-keyspace index probe"},
          {"compact.merge", RedirectMode::kScratchRedirect, "CompactionManager::MergeProbe"},
          {"kvs.partition.validate", RedirectMode::kReadOnly, "block-window fsck of real data"},
      });
  return plan;
}

void RegisterOpExecutors(awd::OpExecutorRegistry& registry, KvsNode& node) {
  const std::string node_id = node.options().node_id;

  // Listener liveness: the main loop stamps a flag every pass (the classic
  // "insert a flag at each important point of the main loop" pattern, §2);
  // the mimicked recv checks its freshness.
  registry.Register("net.recv." + node_id,
                    awd::ListenerTickExecutor(
                        node.clock(), *node.metrics().GetGauge("kvs.listener.last_tick_ns")));
  registry.Register("disk.append", awd::ScratchAppendExecutor(node.disk()));
  registry.Register("disk.fsync", awd::ScratchFsyncExecutor(node.disk()));
  registry.Register("disk.create", awd::ScratchCreateExecutor(node.disk()));
  registry.Register("disk.write", awd::ScratchWriteExecutor(node.disk()));
  registry.Register("lock.memtable.flush",
                    awd::BoundedLockExecutor(node.memtable().flush_lock()));
  // Sent from a dedicated watchdog endpoint so it never intercepts the main
  // listener's messages.
  registry.Register("net.send.*",
                    awd::ProbeSendExecutor(node.net(), node_id + ".wdg", kMsgWdgProbe));

  // Index lookup against the real index (read-only; watchdog keyspace).
  registry.Register(
      "index.lookup",
      [&node](const awd::ReducedOp&, const wdg::CheckContext& ctx, const std::string&) {
        const std::string key =
            ctx.Get<std::string>("key").value_or(std::string(kWatchdogKeyPrefix) + "probe");
        const auto value = node.index().Get(key);
        if (!value.ok() && value.status().code() != wdg::StatusCode::kNotFound) {
          return value.status();
        }
        return wdg::Status::Ok();
      });

  // Real-data read: first registered SSTable (read-only).
  registry.Register(
      "disk.read",
      [&node](const awd::ReducedOp&, const wdg::CheckContext&, const std::string&) {
        const auto tables = node.index().Tables();
        if (tables.empty()) {
          return wdg::Status::Ok();
        }
        // The table list is a snapshot; compaction can delete the listed
        // table before the read lands. Stale context is not a disk fault.
        // Read clamps the 4 KiB to the file size.
        const auto read = node.disk().Read(tables.front(), 0, 4096);
        if (read.status().code() == wdg::StatusCode::kNotFound) {
          return wdg::Status::Ok();
        }
        return read.status();
      });

  // Reduced merge sharing the compaction fault site.
  registry.Register(
      "compact.merge",
      [&node](const awd::ReducedOp&, const wdg::CheckContext&, const std::string& checker) {
        return node.compaction().MergeProbe(checker);
      });

  // Partition checksum validation against real data (read-only fsck), a
  // fixed-size window of the table's CRC'd blocks per run.
  registry.Register(
      "kvs.partition.validate",
      [&node](const awd::ReducedOp&, const wdg::CheckContext& ctx, const std::string&) {
        const auto table = ctx.Get<std::string>("table");
        const wdg::Status status = node.partitions().ValidateWindow(table.value_or(""));
        // The table may have been compacted away since the hook fired.
        if (table.has_value() && status.code() == wdg::StatusCode::kNotFound) {
          return wdg::Status::Ok();
        }
        return status;
      });
}

}  // namespace kvs
