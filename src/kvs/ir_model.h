// kvs ↔ AutoWatchdog bridge.
//
// DescribeIr() is the mini-IR model of the node's code — the input Soot would
// extract from bytecode (see DESIGN.md §2 substitution). Its function names
// and instruction ids define the hook-site names ("FlushMemtable:1", ...)
// that the component code fires, so the analysis' HookPlan lands on real
// instrumentation points.
//
// RegisterOpExecutors() provides the runtime half of mimicry: how each op
// site is re-executed safely. It binds the standard executors
// (src/autowd/standard_executors.h) to the node's disk, flush lock, listener
// gauge and network, and adds the domain executors: index.lookup, disk.read,
// compact.merge and kvs.partition.validate. Executors go through the same
// fault-injection sites as the main program — fate sharing.
#pragma once

#include "src/autowd/lint.h"
#include "src/autowd/synth.h"
#include "src/ir/ir.h"
#include "src/kvs/server.h"

namespace kvs {

// IR model of a node with the given options (follower ids parameterize the
// replication sites; node id parameterizes the recv site).
awd::Module DescribeIr(const KvsOptions& options);

// How RegisterOpExecutors() neutralizes each op site's side effects —
// the I/O-redirection plan wdg-lint's isolation pass checks W against.
awd::RedirectionPlan DescribeRedirections();

// Registers mimic executors for every op site DescribeIr() emits. `node`
// must outlive the registry and any driver using it.
void RegisterOpExecutors(awd::OpExecutorRegistry& registry, KvsNode& node);

}  // namespace kvs
