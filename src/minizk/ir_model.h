// minizk ↔ AutoWatchdog bridge: the IR model (including the exact Figure 2
// serializeSnapshot chain) and the mimic op executors — all of them standard
// executors (src/autowd/standard_executors.h) bound to the node's disk, commit
// and datatree locks, listener gauge and network.
#pragma once

#include "src/autowd/lint.h"
#include "src/autowd/synth.h"
#include "src/ir/ir.h"
#include "src/minizk/server.h"

namespace minizk {

awd::Module DescribeIr(const ZkOptions& options);

// I/O-redirection plan of the executors, for wdg-lint's isolation pass.
awd::RedirectionPlan DescribeRedirections();

void RegisterOpExecutors(awd::OpExecutorRegistry& registry, ZkNode& node);

}  // namespace minizk
