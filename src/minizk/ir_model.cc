#include "src/minizk/ir_model.h"

#include "src/autowd/standard_executors.h"
#include "src/minizk/zk_types.h"

namespace minizk {

using awd::FunctionBuilder;
using awd::OpKind;

awd::Module DescribeIr(const ZkOptions& options) {
  awd::Module module("minizk");

  // --- request listener ----------------------------------------------------
  module.AddFunction(FunctionBuilder("ListenerLoop", "zk.listener")
                         .LongRunning()
                         .LoopBegin()
                         .Op(OpKind::kNetRecv, "net.recv." + options.node_id, {"node"},
                             {"msg"}, "endpoint.Recv()")
                         .Compute("dispatch msg to handler", {"msg"})
                         .LoopEnd()
                         .Build());

  // --- write pipeline (the ZK-2201 shape) -----------------------------------
  module.AddFunction(FunctionBuilder("ProcessorLoop", "zk.sync_processor")
                         .LongRunning()
                         .LoopBegin()
                         .Compute("pop pending write", {}, {"write"})
                         .Call("ProcessWrite", {"write"})
                         .LoopEnd()
                         .Build());
  {
    FunctionBuilder process("ProcessWrite", "zk.sync_processor");
    process.Param("write");
    process.Op(OpKind::kLockAcquire, "lock.zk.commit", {}, {}, "commit critical section");
    process.Op(OpKind::kIoWrite, "disk.append", {"txn_bytes"}, {}, "txnlog append");
    for (const wdg::NodeId& follower : options.followers) {
      process.Op(OpKind::kNetSend, "net.send." + follower, {"follower"}, {},
                 "remote sync (blocking)");
    }
    process.Call("serializeSnapshot", {"oa"});
    process.Op(OpKind::kLockRelease, "lock.zk.commit");
    process.Return();
    module.AddFunction(process.Build());
  }

  // --- snapshot chain: Figure 2 verbatim ------------------------------------
  module.AddFunction(FunctionBuilder("serializeSnapshot", "zk.snapshot")
                         .Param("oa")
                         .Compute("scount = 0")
                         .Call("serialize", {"oa", "tag"})
                         .Return()
                         .Build());
  module.AddFunction(FunctionBuilder("serialize", "zk.snapshot")
                         .Param("oa")
                         .Param("tag")
                         .Compute("header bookkeeping")
                         .Call("serializeNode", {"oa", "path"})
                         .Return()
                         .Build());
  module.AddFunction(FunctionBuilder("serializeNode", "zk.snapshot")
                         .Param("oa")
                         .Param("path")
                         .Compute("node = getNode(pathString)", {"path"}, {"node"})
                         .Op(OpKind::kLockAcquire, "lock.zk.datatree", {"node"}, {},
                             "synchronized(node)")
                         .Op(OpKind::kIoWrite, "disk.write", {"oa", "node"}, {},
                             "oa.writeRecord(node, \"node\")")
                         .Op(OpKind::kLockRelease, "lock.zk.datatree", {"node"})
                         .Call("serializeNode", {"oa", "path"})  // serialize children
                         .Return()
                         .Build());

  // --- session heartbeats ----------------------------------------------------
  {
    FunctionBuilder session("SessionLoop", "zk.session");
    session.LongRunning();
    session.LoopBegin();
    for (const wdg::NodeId& follower : options.followers) {
      session.Op(OpKind::kNetSend, "net.send." + follower + ".hb", {"follower"}, {},
                 "session ping");
    }
    if (options.followers.empty()) {
      session.Compute("standalone: no sessions to ping");
    }
    session.LoopEnd();
    module.AddFunction(session.Build());
  }

  return module;
}

awd::RedirectionPlan DescribeRedirections() { return awd::StandardRedirections(); }

void RegisterOpExecutors(awd::OpExecutorRegistry& registry, ZkNode& node) {
  const std::string node_id = node.options().node_id;

  registry.Register("net.recv." + node_id,
                    awd::ListenerTickExecutor(
                        node.clock(), *node.metrics().GetGauge("zk.listener.last_tick_ns")));
  registry.Register("disk.append", awd::ScratchAppendExecutor(node.disk()));
  registry.Register("disk.write", awd::ScratchWriteExecutor(node.disk()));
  // The commit critical section is the direct ZK-2201 detector: when a remote
  // sync wedges while holding it, the mimicked acquisition times out.
  registry.Register("lock.zk.commit", awd::BoundedLockExecutor(node.processor().commit_lock()));
  registry.Register("lock.zk.datatree", awd::BoundedLockExecutor(node.tree().serialize_lock()));
  // Covers both the sync link and the "<follower>.hb" heartbeat endpoints;
  // each answers the watchdog probe type.
  registry.Register("net.send.*",
                    awd::ProbeSendExecutor(node.net(), node_id + ".wdg", kMsgWdgProbe));
}

}  // namespace minizk
