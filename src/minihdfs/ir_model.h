// minihdfs ↔ AutoWatchdog bridge. The generated disk checker here is the
// paper's §3.3 exemplar: it creates files and does real I/O the way the
// DataNode's write path does — the enhanced HADOOP-13738 checker — rather
// than the original permissions-only check. Its disk, listener and send
// executors are the standard ones (src/autowd/standard_executors.h); the one
// domain executor is hdfs.scan.verify.
#pragma once

#include "src/autowd/lint.h"
#include "src/autowd/synth.h"
#include "src/ir/ir.h"
#include "src/minihdfs/datanode.h"

namespace minihdfs {

awd::Module DescribeIr(const DataNodeOptions& options);

// I/O-redirection plan of the executors, for wdg-lint's isolation pass.
awd::RedirectionPlan DescribeRedirections();

void RegisterOpExecutors(awd::OpExecutorRegistry& registry, DataNode& node);

}  // namespace minihdfs
