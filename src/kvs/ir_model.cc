#include "src/kvs/ir_model.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/kvs/wal.h"

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
  awd::RedirectionPlan plan;
  plan.entries = {
      {"disk.append", RedirectMode::kScratchRedirect, "scratch WAL + read-back verify"},
      {"disk.fsync", RedirectMode::kScratchRedirect, "fsync of the scratch WAL"},
      {"disk.create", RedirectMode::kScratchRedirect, "create-probe in scratch"},
      {"disk.write", RedirectMode::kScratchRedirect, "scratch block + read-back compare"},
      {"disk.read", RedirectMode::kReadOnly, "reads the first registered SSTable"},
      {"index.lookup", RedirectMode::kReadOnly, "watchdog-keyspace index probe"},
      {"compact.merge", RedirectMode::kScratchRedirect, "CompactionManager::MergeProbe"},
      {"lock.*", RedirectMode::kBoundedTry, "try_lock_for on the real mutex"},
      {"net.send.*", RedirectMode::kReplicate, "probe from the dedicated .wdg endpoint"},
      {"net.recv.*", RedirectMode::kReadOnly, "listener-tick gauge freshness"},
      {"kvs.partition.validate", RedirectMode::kReadOnly, "checksum fsck of real data"},
  };
  return plan;
}

namespace {

// Redirected scratch WAL the append/fsync executors touch instead of the
// node's real log (I/O redirection, §5.1).
std::string ScratchWal(const std::string& checker) {
  return wdg::SimDisk::ScratchPath(checker, "wal.log");
}

wdg::Status EnsureExists(wdg::SimDisk& disk, const std::string& path) {
  if (!disk.Exists(path)) {
    const wdg::Status status = disk.Create(path);
    if (!status.ok() && status.code() != wdg::StatusCode::kAlreadyExists) {
      return status;
    }
  }
  return wdg::Status::Ok();
}

}  // namespace

void RegisterOpExecutors(awd::OpExecutorRegistry& registry, KvsNode& node) {
  const std::string node_id = node.options().node_id;

  // Listener liveness: the main loop stamps a flag every pass (the classic
  // "insert a flag at each important point of the main loop" pattern, §2);
  // the mimicked recv checks its freshness.
  registry.Register(
      "net.recv." + node_id,
      [&node](const awd::ReducedOp&, const wdg::CheckContext&, const std::string&) {
        const double last = node.metrics().GetGauge("kvs.listener.last_tick_ns")->Value();
        const double age = static_cast<double>(node.clock().NowNs()) - last;
        if (last > 0 && age > static_cast<double>(wdg::Ms(500))) {
          return wdg::TimeoutError("listener loop has not ticked recently");
        }
        return wdg::Status::Ok();
      });

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

  // Scratch-redirected WAL append with read-back verification: catches
  // errors, hangs (via fault site), and silent lost writes.
  registry.Register(
      "disk.append",
      [&node](const awd::ReducedOp&, const wdg::CheckContext&, const std::string& checker) {
        wdg::SimDisk& disk = node.disk();
        const std::string path = ScratchWal(checker);
        WDG_RETURN_IF_ERROR(EnsureExists(disk, path));
        const auto before = disk.Size(path);
        const std::string record = Wal::FrameRecord("wdg-probe");
        WDG_RETURN_IF_ERROR(disk.Append(path, record));
        WDG_ASSIGN_OR_RETURN(const int64_t after, disk.Size(path));
        if (before.ok() && after != *before + static_cast<int64_t>(record.size())) {
          return wdg::CorruptionError("appended bytes did not land (lost write)");
        }
        if (after > 64 * 1024) {
          disk.PurgeScratch(checker);
        }
        return wdg::Status::Ok();
      });

  registry.Register(
      "disk.fsync",
      [&node](const awd::ReducedOp&, const wdg::CheckContext&, const std::string& checker) {
        wdg::SimDisk& disk = node.disk();
        const std::string path = ScratchWal(checker);
        WDG_RETURN_IF_ERROR(EnsureExists(disk, path));
        return disk.Fsync(path);
      });

  registry.Register(
      "disk.create",
      [&node](const awd::ReducedOp&, const wdg::CheckContext&, const std::string& checker) {
        wdg::SimDisk& disk = node.disk();
        const std::string path = wdg::SimDisk::ScratchPath(checker, "create-probe.tmp");
        if (disk.Exists(path)) {
          WDG_RETURN_IF_ERROR(disk.Delete(path));
        }
        return disk.Create(path);
      });

  // Block write + read-back compare: catches I/O errors and bit corruption.
  registry.Register(
      "disk.write",
      [&node](const awd::ReducedOp&, const wdg::CheckContext&, const std::string& checker) {
        wdg::SimDisk& disk = node.disk();
        const std::string path = wdg::SimDisk::ScratchPath(checker, "block.dat");
        WDG_RETURN_IF_ERROR(EnsureExists(disk, path));
        const std::string block(1024, '\x5c');
        WDG_RETURN_IF_ERROR(disk.Write(path, 0, block));
        WDG_ASSIGN_OR_RETURN(const std::string readback,
                             disk.Read(path, 0, static_cast<int64_t>(block.size())));
        if (readback != block) {
          return wdg::CorruptionError("written block read back differently");
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
        const auto size = node.disk().Size(tables.front());
        if (size.status().code() == wdg::StatusCode::kNotFound) {
          return wdg::Status::Ok();
        }
        WDG_RETURN_IF_ERROR(size.status());
        const auto read =
            node.disk().Read(tables.front(), 0, std::min<int64_t>(*size, 4096));
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

  // Bounded try-lock on the real flush mutex: a flush wedged inside the
  // critical section turns this into a timeout.
  registry.Register(
      "lock.memtable.flush",
      [&node](const awd::ReducedOp&, const wdg::CheckContext&, const std::string&) {
        std::unique_lock<std::timed_mutex> lock(node.memtable().flush_lock(),
                                                std::defer_lock);
        if (!lock.try_lock_for(std::chrono::nanoseconds(wdg::Ms(100)))) {
          return wdg::TimeoutError("flush lock held too long");
        }
        return wdg::Status::Ok();
      });

  // Cross-node probe on the real link. Sent from a dedicated watchdog
  // endpoint so it never intercepts the main listener's messages — but through
  // the same "net.send.<follower>" fault site, so a hung link hangs us too.
  registry.Register(
      "net.send.*",
      [&node, node_id](const awd::ReducedOp& op, const wdg::CheckContext&,
                       const std::string&) {
        const std::string follower = op.site.substr(std::string("net.send.").size());
        wdg::Endpoint* wdg_ep = node.net().CreateEndpoint(node_id + ".wdg");
        return wdg_ep->Call(follower, kMsgWdgProbe, "", wdg::Ms(150)).status();
      });

  // Partition checksum validation against real data (read-only fsck).
  registry.Register(
      "kvs.partition.validate",
      [&node](const awd::ReducedOp&, const wdg::CheckContext& ctx, const std::string&) {
        const auto table = ctx.Get<std::string>("table");
        if (table.has_value()) {
          const wdg::Status status = node.partitions().Validate(*table);
          // The table may have been compacted away since the hook fired.
          if (status.code() == wdg::StatusCode::kNotFound) {
            return wdg::Status::Ok();
          }
          return status;
        }
        return node.partitions().ValidateAll();
      });
}

}  // namespace kvs
