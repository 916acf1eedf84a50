// Standard mimic executors: one factory per shape of vulnerable operation.
//
// Paper §4 builds mimic checkers per *kind* of operation, not per system. A
// system binds each shape to its own resources — its SimDisk, its mutex, its
// listener gauge, its network — and registers domain executors only for the
// ops no shape covers:
//
//   registry.Register("disk.append", awd::ScratchAppendExecutor(node.disk()));
//   registry.Register("lock.memtable.flush",
//                     awd::BoundedLockExecutor(node.memtable().flush_lock()));
//
// Every executor goes through the same fault sites as the main program (fate
// sharing) and writes only under the checker's scratch namespace
// (SimDisk::ScratchPath): "probe.log" for append and fsync, "probe.blk" for
// create and write. StandardRedirections() declares that plan for wdg-lint.
// The bound objects must outlive the registry.
#pragma once

#include <mutex>
#include <string>

#include "src/autowd/lint.h"
#include "src/autowd/synth.h"
#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_net.h"

namespace awd {

// net.recv.<node>: the listener loop stamps `last_tick_ns` every pass; the
// mimicked recv times out when a set stamp is older than 500 ms.
ExecutorFn ListenerTickExecutor(wdg::Clock& clock, const wdg::Gauge& last_tick_ns);

// disk.append: appends a probe record to the scratch log, then checks that the
// file grew by exactly the record's size and that the appended range reads
// back unchanged (catches errors, hangs, lost and corrupted appends). Purges
// the checker's scratch files once the log passes 64 KiB.
ExecutorFn ScratchAppendExecutor(wdg::SimDisk& disk);

// disk.write: writes a 1 KiB block, stamped with a per-run sequence number so
// a dropped write cannot pass on the previous run's bytes, and reads it back.
ExecutorFn ScratchWriteExecutor(wdg::SimDisk& disk);

// disk.create: deletes the scratch block if present, then creates it.
ExecutorFn ScratchCreateExecutor(wdg::SimDisk& disk);

// disk.fsync: fsyncs the scratch log, creating it first if needed.
ExecutorFn ScratchFsyncExecutor(wdg::SimDisk& disk);

// lock.*: polls try_lock for 100 ms on the real mutex; a holder wedged inside the
// critical section turns into a timeout.
ExecutorFn BoundedLockExecutor(std::timed_mutex& mu);

// net.send.<dst>: an RPC of `msg_type` to <dst> from the dedicated endpoint
// `from`, through the same "net.send.<dst>" fault site as the program's
// sends. The peer must answer `msg_type`; the call times out after 150 ms.
ExecutorFn ProbeSendExecutor(wdg::SimNet& net, const wdg::NodeId& from, std::string msg_type);

// Redirection entries for the shapes above, for a system's
// DescribeRedirections() to extend with its domain entries.
RedirectionPlan StandardRedirections();

}  // namespace awd
