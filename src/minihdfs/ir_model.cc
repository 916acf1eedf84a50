#include "src/minihdfs/ir_model.h"

#include "src/autowd/standard_executors.h"

namespace minihdfs {

using awd::FunctionBuilder;
using awd::OpKind;

awd::Module DescribeIr(const DataNodeOptions& options) {
  awd::Module module("minihdfs");

  // --- block xceiver (write path) -------------------------------------------
  module.AddFunction(FunctionBuilder("DataNodeLoop", "hdfs.listener")
                         .LongRunning()
                         .LoopBegin()
                         .Op(OpKind::kNetRecv, "net.recv." + options.node_id, {"node"},
                             {"msg"}, "endpoint.Recv()")
                         .Call("HandleWriteBlock", {"msg"})
                         .LoopEnd()
                         .Build());
  {
    FunctionBuilder handle("HandleWriteBlock", "hdfs.xceiver");
    handle.Param("msg");
    handle.Op(OpKind::kIoCreate, "disk.create", {"block_id"}, {}, "create block file");
    handle.Op(OpKind::kIoWrite, "disk.write", {"block_id", "block_bytes"}, {},
              "write block data");
    handle.Op(OpKind::kIoFsync, "disk.fsync", {"block_id"}, {}, "fsync block + meta");
    if (!options.downstream.empty()) {
      handle.Op(OpKind::kNetSend, "net.send." + options.downstream, {"block_id"}, {},
                "pipeline to downstream replica");
    }
    handle.Compute("update metrics", {"block_id"});
    handle.Return();
    module.AddFunction(handle.Build());
  }

  // --- block scanner ----------------------------------------------------------
  module.AddFunction(FunctionBuilder("BlockScanLoop", "hdfs.scanner")
                         .LongRunning()
                         .LoopBegin()
                         .Op(OpKind::kCompute, "hdfs.scan.verify", {"block_id"}, {},
                             "verify block checksum")
                         .Vulnerable()
                         .LoopEnd()
                         .Build());

  // --- heartbeats --------------------------------------------------------------
  module.AddFunction(FunctionBuilder("HeartbeatLoop", "hdfs.heartbeat")
                         .LongRunning()
                         .LoopBegin()
                         .Op(OpKind::kNetSend, "net.send." + options.namenode_id,
                             {"namenode"}, {}, "send heartbeat + block report")
                         .LoopEnd()
                         .Build());

  return module;
}

awd::RedirectionPlan DescribeRedirections() {
  awd::RedirectionPlan plan = awd::StandardRedirections();
  plan.entries.push_back(
      {"hdfs.scan.verify", awd::RedirectMode::kReadOnly, "verify one real block, read-only"});
  return plan;
}

void RegisterOpExecutors(awd::OpExecutorRegistry& registry, DataNode& node) {
  const std::string node_id = node.options().node_id;

  registry.Register("net.recv." + node_id,
                    awd::ListenerTickExecutor(
                        node.clock(), *node.metrics().GetGauge("hdfs.listener.last_tick_ns")));
  // THE disk checker (§3.3): create a file, do real I/O the way the write
  // path does, read it back — in the checker's scratch namespace.
  registry.Register("disk.create", awd::ScratchCreateExecutor(node.disk()));
  registry.Register("disk.write", awd::ScratchWriteExecutor(node.disk()));
  registry.Register("disk.fsync", awd::ScratchFsyncExecutor(node.disk()));

  // Scanner mimic: verify one real block (read-only), through the same
  // instrumented site the scanner uses — fate shared with a wedged scanner.
  registry.Register(
      "hdfs.scan.verify",
      [&node](const awd::ReducedOp&, const wdg::CheckContext& ctx, const std::string&) {
        WDG_RETURN_IF_ERROR(node.disk().injector().Act("hdfs.scan.verify"));
        const auto block_id = ctx.Get<int64_t>("block_id");
        if (!block_id.has_value() || !node.blocks().HasBlock(*block_id)) {
          return wdg::Status::Ok();  // block may have been deleted since the hook
        }
        return node.blocks().VerifyBlock(*block_id);
      });

  // Heartbeat-path probe to the NameNode on the real link.
  registry.Register("net.send.*",
                    awd::ProbeSendExecutor(node.net(), node_id + ".wdg", kMsgWdgProbe));
}

}  // namespace minihdfs
