// Tests for AutoWatchdog: program logic reduction, context inference,
// checker synthesis, codegen, and the end-to-end Generate pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "src/autowd/autowatchdog.h"
#include "src/autowd/codegen.h"
#include "src/autowd/context_infer.h"
#include "src/autowd/reduce.h"
#include "src/autowd/standard_executors.h"
#include "src/autowd/synth.h"
#include "src/common/clock.h"
#include "src/common/threading.h"
#include "src/watchdog/driver.h"

namespace awd {
namespace {

// Same Figure-2-shaped module as ir_test.cc (duplicated to keep each test
// binary self-contained).
Module FigureTwoModule() {
  Module module("minizk");
  module.AddFunction(FunctionBuilder("snapshotLoop", "zk.snapshot")
                         .LongRunning()
                         .Op(OpKind::kIoCreate, "disk.create", {"snapName"}, {},
                             "create snapshot file")
                         .LoopBegin()
                         .Compute("wait for snapshot trigger")
                         .Call("serializeSnapshot", {"oa"})
                         .Op(OpKind::kIoFsync, "disk.fsync", {"snapName"}, {}, "fsync snapshot")
                         .LoopEnd()
                         .Build());
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
                         .Compute("node = getNode(path)", {"path"}, {"node"})
                         .Op(OpKind::kLockAcquire, "lock.datatree.node", {"node"}, {},
                             "synchronized(node)")
                         .Op(OpKind::kIoWrite, "disk.write", {"oa", "node"}, {},
                             "oa.writeRecord(node, \"node\")")
                         .Compute("children = node.getChildren()", {"node"}, {"children"})
                         .Op(OpKind::kLockRelease, "lock.datatree.node", {"node"})
                         .Call("serializeNode", {"oa", "path"})
                         .Return()
                         .Build());
  return module;
}

std::set<std::string> RetainedSites(const ReducedProgram& program) {
  std::set<std::string> sites;
  for (const ReducedFunction& fn : program.functions) {
    for (const ReducedOp& op : fn.ops) {
      sites.insert(op.site);
    }
  }
  return sites;
}

// ---------------------------------------------------------------- reduction

TEST(ReducerTest, KeepsVulnerableOpsAlongCallChain) {
  const Module module = FigureTwoModule();
  const ReducedProgram program = Reducer(module).Reduce();
  ASSERT_EQ(program.functions.size(), 1u);
  const auto sites = RetainedSites(program);
  // Figure 2's walk: the writeRecord I/O and the node lock survive, plus the
  // loop's own fsync. Pure compute and lock-release do not.
  EXPECT_EQ(sites.count("disk.write"), 1u);
  EXPECT_EQ(sites.count("lock.datatree.node"), 1u);
  EXPECT_EQ(sites.count("disk.fsync"), 1u);
  EXPECT_EQ(sites.size(), 3u);
}

TEST(ReducerTest, ExcludesInitializationCode) {
  const Module module = FigureTwoModule();
  const ReducedProgram program = Reducer(module).Reduce();
  // disk.create happens before the loop — initialization, not continuous.
  EXPECT_EQ(RetainedSites(program).count("disk.create"), 0u);
}

TEST(ReducerTest, RecursionTerminates) {
  // serializeNode calls itself; reduction must not loop forever and must not
  // duplicate its ops.
  const Module module = FigureTwoModule();
  const ReducedProgram program = Reducer(module).Reduce();
  int write_ops = 0;
  for (const ReducedFunction& fn : program.functions) {
    for (const ReducedOp& op : fn.ops) {
      write_ops += op.site == "disk.write" ? 1 : 0;
    }
  }
  EXPECT_EQ(write_ops, 1);
}

TEST(ReducerTest, ProvenanceIsRecorded) {
  const Module module = FigureTwoModule();
  const ReducedProgram program = Reducer(module).Reduce();
  const ReducedFunction& fn = program.functions[0];
  EXPECT_EQ(fn.origin, "snapshotLoop");
  EXPECT_EQ(fn.name, "snapshotLoop_reduced");
  bool found = false;
  for (const ReducedOp& op : fn.ops) {
    if (op.site == "disk.write") {
      found = true;
      EXPECT_EQ(op.origin_function, "serializeNode");
      EXPECT_EQ(op.origin_instr_id, 3);
      EXPECT_EQ(op.component, "zk.snapshot");
    }
  }
  EXPECT_TRUE(found);
}

TEST(ReducerTest, SimilarOpDedupCollapsesRepeats) {
  Module module("m");
  module.AddFunction(FunctionBuilder("writer", "c")
                         .LongRunning()
                         .LoopBegin()
                         .Op(OpKind::kIoWrite, "disk.write", {"a"})
                         .Op(OpKind::kIoWrite, "disk.write", {"b"})
                         .Op(OpKind::kIoWrite, "disk.write", {"c"})
                         .LoopEnd()
                         .Build());
  const ReducedProgram with = Reducer(module).Reduce();
  EXPECT_EQ(with.functions[0].ops.size(), 1u);  // "invoke write() once"
  EXPECT_EQ(with.stats.deduped_similar, 2);

  ReducerOptions no_dedup;
  no_dedup.dedup_similar = false;
  const ReducedProgram without = Reducer(module, no_dedup).Reduce();
  EXPECT_EQ(without.functions[0].ops.size(), 3u);
}

TEST(ReducerTest, GlobalDedupAcrossRoots) {
  Module module("m");
  module.AddFunction(FunctionBuilder("rootA", "c")
                         .LongRunning()
                         .LoopBegin()
                         .Call("shared")
                         .LoopEnd()
                         .Build());
  module.AddFunction(FunctionBuilder("rootB", "c")
                         .LongRunning()
                         .LoopBegin()
                         .Call("shared")
                         .Op(OpKind::kNetSend, "net.send.peer", {"msg"})
                         .LoopEnd()
                         .Build());
  module.AddFunction(FunctionBuilder("shared", "c")
                         .Op(OpKind::kIoWrite, "disk.write", {"x"})
                         .Build());
  const ReducedProgram program = Reducer(module).Reduce();
  // rootA claims shared's write; rootB keeps only its own net.send.
  int total_ops = 0;
  for (const ReducedFunction& fn : program.functions) {
    total_ops += static_cast<int>(fn.ops.size());
  }
  EXPECT_EQ(total_ops, 2);
  EXPECT_EQ(program.stats.deduped_global, 1);
}

TEST(ReducerTest, MaxDepthBoundsTraversal) {
  Module module("m");
  module.AddFunction(FunctionBuilder("root", "c")
                         .LongRunning()
                         .LoopBegin()
                         .Call("f1")
                         .LoopEnd()
                         .Build());
  module.AddFunction(FunctionBuilder("f1", "c").Call("f2").Build());
  module.AddFunction(
      FunctionBuilder("f2", "c").Op(OpKind::kIoWrite, "disk.write", {"x"}).Build());
  ReducerOptions shallow;
  shallow.max_call_depth = 1;
  EXPECT_TRUE(Reducer(module, shallow).Reduce().functions.empty());
  ReducerOptions deep;
  deep.max_call_depth = 8;
  EXPECT_EQ(Reducer(module, deep).Reduce().functions.size(), 1u);
}

TEST(ReducerTest, AnnotatedComputeRetained) {
  Module module("m");
  module.AddFunction(FunctionBuilder("root", "c")
                         .LongRunning()
                         .LoopBegin()
                         .Compute("validatePartition(p)", {"p"})
                         .Vulnerable()  // developer tag (§4.2 config)
                         .LoopEnd()
                         .Build());
  // Sites are required for executor dispatch; annotated compute uses label site.
  Module module2("m2");
  module2.AddFunction(FunctionBuilder("root", "c")
                          .LongRunning()
                          .LoopBegin()
                          .Op(OpKind::kCompute, "kvs.partition.validate", {"p"}, {},
                              "validatePartition")
                          .Vulnerable()
                          .LoopEnd()
                          .Build());
  const ReducedProgram program = Reducer(module2).Reduce();
  ASSERT_EQ(program.functions.size(), 1u);
  EXPECT_EQ(program.functions[0].ops[0].site, "kvs.partition.validate");
}

// ------------------------------------------------------------ context infer

TEST(ContextInferTest, VariablesAreUnionOfOpArgs) {
  const Module module = FigureTwoModule();
  const ReducedProgram program = Reducer(module).Reduce();
  const HookPlan plan = InferContexts(program);
  ASSERT_EQ(plan.contexts.size(), 1u);
  const ContextSpec& spec = plan.contexts[0];
  EXPECT_EQ(spec.context_name, "snapshotLoop_ctx");
  const std::set<std::string> vars(spec.variables.begin(), spec.variables.end());
  EXPECT_EQ(vars.count("oa"), 1u);
  EXPECT_EQ(vars.count("node"), 1u);
  EXPECT_EQ(vars.count("snapName"), 1u);
}

TEST(ContextInferTest, HookBeforeFirstRetainedOpPerOrigin) {
  const Module module = FigureTwoModule();
  const ReducedProgram program = Reducer(module).Reduce();
  const HookPlan plan = InferContexts(program);
  bool node_hook = false;
  for (const HookPoint& point : plan.points) {
    if (point.function == "serializeNode") {
      node_hook = true;
      // Figure 2: hook inserted right before writeRecord... but the lock
      // acquire (instr 2) is the first retained op from serializeNode.
      EXPECT_EQ(point.before_instr_id, 2);
      EXPECT_EQ(point.hook_site, "serializeNode:2");
      EXPECT_EQ(point.context_name, "snapshotLoop_ctx");
      const std::set<std::string> capture(point.capture.begin(), point.capture.end());
      EXPECT_EQ(capture.count("node"), 1u);
      EXPECT_EQ(capture.count("oa"), 1u);
    }
  }
  EXPECT_TRUE(node_hook);
}

TEST(ContextInferTest, HookSiteNaming) {
  EXPECT_EQ(HookSiteName("Flush", 7), "Flush:7");
}

// ----------------------------------------------------------------- executor

TEST(OpExecutorRegistryTest, ExactBeatsGenericByOrder) {
  OpExecutorRegistry registry;
  registry.Register("disk.write",
                    [](const ReducedOp&, const wdg::CheckContext&, const std::string&) {
                      return wdg::IoError("specific");
                    });
  registry.Register("*", [](const ReducedOp&, const wdg::CheckContext&, const std::string&) {
    return wdg::Status::Ok();
  });
  ReducedOp op;
  op.site = "disk.write";
  wdg::CheckContext ctx("c");
  EXPECT_EQ(registry.Execute(op, ctx, "t").code(), wdg::StatusCode::kIoError);
  op.site = "anything.else";
  EXPECT_TRUE(registry.Execute(op, ctx, "t").ok());
}

TEST(OpExecutorRegistryTest, UnknownSiteIsUnimplemented) {
  OpExecutorRegistry registry;
  ReducedOp op;
  op.site = "mystery.op";
  wdg::CheckContext ctx("c");
  EXPECT_EQ(registry.Execute(op, ctx, "t").code(), wdg::StatusCode::kUnimplemented);
  EXPECT_FALSE(registry.HasExecutorFor("mystery.op"));
}

// --------------------------------------------------------- generated checker

ReducedFunction TwoOpFunction() {
  ReducedFunction fn;
  fn.name = "flushLoop_reduced";
  fn.origin = "flushLoop";
  fn.component = "kvs.flusher";
  ReducedOp write;
  write.kind = OpKind::kIoWrite;
  write.site = "disk.write";
  write.origin_function = "Flush";
  write.origin_instr_id = 4;
  write.component = "kvs.flusher";
  write.args = {"file"};
  fn.ops.push_back(write);
  ReducedOp fsync;
  fsync.kind = OpKind::kIoFsync;
  fsync.site = "disk.fsync";
  fsync.origin_function = "Flush";
  fsync.origin_instr_id = 5;
  fsync.component = "kvs.flusher";
  fn.ops.push_back(fsync);
  return fn;
}

TEST(GeneratedCheckerTest, GatesOnContextReady) {
  OpExecutorRegistry registry;
  int executed = 0;
  registry.Register("*", [&](const ReducedOp&, const wdg::CheckContext&, const std::string&) {
    ++executed;
    return wdg::Status::Ok();
  });
  wdg::CheckContext ctx("flushLoop_ctx");
  GeneratedChecker checker(TwoOpFunction(), &ctx, &registry);
  EXPECT_EQ(checker.Check().outcome, wdg::CheckOutcome::kContextNotReady);
  EXPECT_EQ(executed, 0);
  ctx.MarkReady(1);
  EXPECT_EQ(checker.Check().outcome, wdg::CheckOutcome::kPass);
  EXPECT_EQ(executed, 2);
  EXPECT_EQ(checker.ops_executed(), 2);
}

TEST(GeneratedCheckerTest, FailurePinpointsOpAndCarriesContext) {
  OpExecutorRegistry registry;
  registry.Register("disk.write",
                    [](const ReducedOp&, const wdg::CheckContext&, const std::string&) {
                      return wdg::IoError("mimicked write exploded");
                    });
  registry.Register("*", [](const ReducedOp&, const wdg::CheckContext&, const std::string&) {
    return wdg::Status::Ok();
  });
  static const auto kFile = wdg::ContextKey<std::string>::Of("file");
  wdg::CheckContext ctx("flushLoop_ctx");
  ctx.Set(kFile, "/sst/42");
  ctx.MarkReady(1);
  GeneratedChecker checker(TwoOpFunction(), &ctx, &registry);
  const wdg::CheckResult result = checker.Check();
  ASSERT_EQ(result.outcome, wdg::CheckOutcome::kFail);
  EXPECT_EQ(result.signature->type, wdg::FailureType::kOperationError);
  EXPECT_EQ(result.signature->location.function, "Flush");
  EXPECT_EQ(result.signature->location.op_site, "disk.write");
  EXPECT_EQ(result.signature->location.instr_id, 4);
  EXPECT_NE(result.signature->context_dump.find("/sst/42"), std::string::npos);
}

TEST(GeneratedCheckerTest, TimeoutClassifiedAsLiveness) {
  EXPECT_EQ(ClassifyOpFailure(wdg::StatusCode::kTimeout),
            wdg::FailureType::kLivenessTimeout);
  EXPECT_EQ(ClassifyOpFailure(wdg::StatusCode::kCorruption),
            wdg::FailureType::kSafetyViolation);
  EXPECT_EQ(ClassifyOpFailure(wdg::StatusCode::kIoError),
            wdg::FailureType::kOperationError);
}

TEST(GeneratedCheckerTest, UnimplementedOpsAreSkippedNotFatal) {
  OpExecutorRegistry registry;  // no executors at all
  wdg::CheckContext ctx("c");
  ctx.MarkReady(1);
  GeneratedChecker checker(TwoOpFunction(), &ctx, &registry);
  EXPECT_EQ(checker.Check().outcome, wdg::CheckOutcome::kPass);
  EXPECT_EQ(checker.ops_skipped(), 2);
}

// ------------------------------------------------------------------ codegen

TEST(CodegenTest, CheckerSourceLooksLikeFigureThree) {
  const Module module = FigureTwoModule();
  const ReducedProgram program = Reducer(module).Reduce();
  const HookPlan plan = InferContexts(program);
  const std::string source = EmitCheckerSource(program.functions[0], plan);
  EXPECT_NE(source.find("snapshotLoop_reduced"), std::string::npos);
  EXPECT_NE(source.find("snapshotLoop_invoke"), std::string::npos);
  EXPECT_NE(source.find("ContextFactory"), std::string::npos);
  EXPECT_NE(source.find("checker context not ready"), std::string::npos);
  EXPECT_NE(source.find("disk.write"), std::string::npos);
  // Captured variables are read through the typed-key API, not the
  // deprecated string accessors or the pre-v2 positional args_getter.
  EXPECT_NE(source.find("wdg::ContextKey<wdg::CtxValue>::Of"), std::string::npos);
  EXPECT_EQ(source.find("args_getter"), std::string::npos);
  EXPECT_EQ(source.find("GetString("), std::string::npos);
}

TEST(CodegenTest, ReductionTraceMarksKeepDropAndHooks) {
  const Module module = FigureTwoModule();
  const ReducedProgram program = Reducer(module).Reduce();
  const HookPlan plan = InferContexts(program);
  const std::string trace = EmitReductionTrace(module, program, plan);
  EXPECT_NE(trace.find("KEEP"), std::string::npos);
  EXPECT_NE(trace.find("drop"), std::string::npos);
  EXPECT_NE(trace.find("+ hook serializeNode:2"), std::string::npos);
  EXPECT_NE(trace.find("[long-running]"), std::string::npos);
}

TEST(CodegenTest, SummaryCountsAreConsistent) {
  const Module module = FigureTwoModule();
  const ReducedProgram program = Reducer(module).Reduce();
  const std::string summary = SummarizeReduction(program);
  EXPECT_NE(summary.find("minizk"), std::string::npos);
  EXPECT_NE(summary.find("1 long-running roots"), std::string::npos);
}

// ------------------------------------------------------- generate (pipeline)

TEST(GenerateTest, ArmsHooksAndRegistersCheckers) {
  const Module module = FigureTwoModule();
  wdg::HookSet hooks;
  OpExecutorRegistry registry;
  registry.Register("*", [](const ReducedOp&, const wdg::CheckContext&, const std::string&) {
    return wdg::Status::Ok();
  });
  wdg::WatchdogDriver driver(wdg::RealClock::Instance());
  const GenerationReport report = Generate(module, hooks, registry, driver);
  EXPECT_EQ(report.checker_names.size(), 1u);
  EXPECT_GE(report.hooks_armed, 2);  // snapshotLoop + serializeNode origins
  EXPECT_EQ(driver.checker_count(), 1);
  EXPECT_TRUE(hooks.Site("serializeNode:2")->armed());
  EXPECT_EQ(report.ops_without_executor, 0);
}

TEST(GenerateTest, EndToEndDetectionThroughDriver) {
  const Module module = FigureTwoModule();
  wdg::HookSet hooks;
  OpExecutorRegistry registry;
  std::atomic<bool> disk_broken{false};
  registry.Register("disk.write",
                    [&](const ReducedOp&, const wdg::CheckContext&, const std::string&) {
                      return disk_broken ? wdg::IoError("bad sector") : wdg::Status::Ok();
                    });
  registry.Register("*", [](const ReducedOp&, const wdg::CheckContext&, const std::string&) {
    return wdg::Status::Ok();
  });

  wdg::WatchdogDriver driver(wdg::RealClock::Instance());
  GenerationOptions options;
  options.checker.interval = wdg::Ms(10);
  options.checker.timeout = wdg::Ms(100);
  Generate(module, hooks, registry, driver, options);
  ASSERT_TRUE(driver.Start().ok());

  // The "main program" reaches the hook point and synchronizes state.
  static const auto kOa = wdg::ContextKey<std::string>::Of("oa");
  static const auto kNode = wdg::ContextKey<std::string>::Of("node");
  static const auto kSnapName = wdg::ContextKey<std::string>::Of("snapName");
  hooks.Site("serializeNode:2")->Fire([&](wdg::CheckContext& ctx) {
    ctx.Set(kOa, "archive0");
    ctx.Set(kNode, "/zk/node1");
    ctx.MarkReady(wdg::RealClock::Instance().NowNs());
  });
  hooks.Site("snapshotLoop:4")->Fire([&](wdg::CheckContext& ctx) {
    ctx.Set(kSnapName, "snap.0");
    ctx.MarkReady(wdg::RealClock::Instance().NowNs());
  });

  wdg::RealClock::Instance().SleepFor(wdg::Ms(60));
  EXPECT_TRUE(driver.Failures().empty());  // healthy program, silent watchdog

  disk_broken = true;  // production fault appears
  ASSERT_TRUE(driver.WaitForFailure(wdg::Sec(2)));
  EXPECT_TRUE(driver.Stop().ok());
  const auto failure = *driver.FirstFailure();
  EXPECT_EQ(failure.location.op_site, "disk.write");
  EXPECT_EQ(failure.location.function, "serializeNode");
  EXPECT_NE(failure.context_dump.find("/zk/node1"), std::string::npos);
}

// Static cost priors must differentiate checker hang deadlines *before* the
// driver's latency histograms have any samples: a cheap read-loop checker
// starts at the 200 ms prior floor while a send-heavy checker keeps the
// configured timeout, visible in DriverMetrics() straight after Generate().
TEST(GenerateTest, CostPriorsSeedColdStartDeadlines) {
  Module module("priors");
  module.AddFunction(FunctionBuilder("CheapLoop", "c")
                         .LongRunning()
                         .LoopBegin()
                         .Op(OpKind::kIoRead, "disk.cheap", {"key"}, {"val"})
                         .LoopEnd()
                         .Return()
                         .Build());
  module.AddFunction(FunctionBuilder("SlowLoop", "c")
                         .LongRunning()
                         .LoopBegin()
                         .Op(OpKind::kNetSend, "net.s1", {"m1"}, {})
                         .Op(OpKind::kNetSend, "net.s2", {"m2"}, {})
                         .Op(OpKind::kIoFsync, "disk.sync", {"f"}, {})
                         .LoopEnd()
                         .Return()
                         .Build());

  wdg::HookSet hooks;
  OpExecutorRegistry registry;
  registry.Register("*", [](const ReducedOp&, const wdg::CheckContext&, const std::string&) {
    return wdg::Status::Ok();
  });
  wdg::WatchdogDriver driver(wdg::RealClock::Instance());
  GenerationOptions options;
  options.checker.timeout = wdg::Ms(400);
  const GenerationReport report = Generate(module, hooks, registry, driver, options);

  // Both checkers got a prior; the generator caps priors at the timeout.
  ASSERT_EQ(report.deadline_priors.size(), 2u);
  EXPECT_EQ(report.deadline_priors.at("CheapLoop_reduced"), wdg::Ms(200));
  EXPECT_EQ(report.deadline_priors.at("SlowLoop_reduced"), wdg::Ms(400));

  // No executions have run, yet the effective deadlines already differ and
  // the cheap checker's is strictly tighter than the static timeout.
  const wdg::DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_EQ(metrics.checker_deadline_ns.at("CheapLoop_reduced"),
            static_cast<double>(wdg::Ms(200)));
  EXPECT_EQ(metrics.checker_deadline_ns.at("SlowLoop_reduced"),
            static_cast<double>(wdg::Ms(400)));
  EXPECT_EQ(metrics.deadline_priors_active, 2);
  EXPECT_EQ(metrics.ToMap().at("wdg.driver.deadline.priors_active"), 2.0);

  // Disabling the cost prior restores the uniform static timeout.
  wdg::WatchdogDriver plain_driver(wdg::RealClock::Instance());
  GenerationOptions no_priors = options;
  no_priors.cost_prior.enabled = false;
  const GenerationReport plain = Generate(module, hooks, registry, plain_driver, no_priors);
  EXPECT_TRUE(plain.deadline_priors.empty());
  const wdg::DriverMetricsSnapshot plain_metrics = plain_driver.DriverMetrics();
  EXPECT_EQ(plain_metrics.checker_deadline_ns.at("CheapLoop_reduced"),
            static_cast<double>(wdg::Ms(400)));
  EXPECT_EQ(plain_metrics.deadline_priors_active, 0);
}

// ------------------------------------------------------- standard executors

class StandardExecutorsTest : public ::testing::Test {
 protected:
  static wdg::DiskOptions InstantDisk() {
    wdg::DiskOptions options;
    options.base_latency = 0;
    options.per_kb_latency = 0;
    return options;
  }

  wdg::Status Run(const ExecutorFn& executor, const std::string& site) {
    ReducedOp op;
    op.site = site;
    return executor(op, ctx_, "probe_checker");
  }

  void Inject(const std::string& site, wdg::FaultKind kind) {
    wdg::FaultSpec fault;
    fault.id = "f";
    fault.site_pattern = site;
    fault.kind = kind;
    injector_.Inject(fault);
  }

  struct DiskShape {
    const char* site;
    ExecutorFn executor;
  };

  wdg::RealClock& clock_ = wdg::RealClock::Instance();
  wdg::FaultInjector injector_{clock_};
  wdg::SimDisk disk_{clock_, injector_, InstantDisk()};
  wdg::SimNet net_{clock_, injector_};
  wdg::CheckContext ctx_{"c"};
};

TEST_F(StandardExecutorsTest, DiskShapesPassWhenHealthyAndSurfaceErrorsAtTheirSite) {
  const DiskShape shapes[] = {{"disk.append", ScratchAppendExecutor(disk_)},
                              {"disk.write", ScratchWriteExecutor(disk_)},
                              {"disk.create", ScratchCreateExecutor(disk_)},
                              {"disk.fsync", ScratchFsyncExecutor(disk_)}};
  for (const DiskShape& shape : shapes) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(Run(shape.executor, shape.site).ok()) << shape.site;
    }
    Inject(shape.site, wdg::FaultKind::kError);
    EXPECT_EQ(Run(shape.executor, shape.site).code(), wdg::StatusCode::kIoError)
        << shape.site;
    injector_.Remove("f");
    EXPECT_TRUE(Run(shape.executor, shape.site).ok()) << shape.site;
  }
  // Writes stay in the checker's scratch namespace.
  for (const std::string& path : disk_.List("")) {
    EXPECT_TRUE(wdg::SimDisk::IsScratchPath(path)) << path;
  }
}

TEST_F(StandardExecutorsTest, AppendAndWriteCatchCorruptedAndDroppedBytes) {
  const DiskShape shapes[] = {{"disk.append", ScratchAppendExecutor(disk_)},
                              {"disk.write", ScratchWriteExecutor(disk_)}};
  for (const DiskShape& shape : shapes) {
    for (const wdg::FaultKind kind : {wdg::FaultKind::kCorruption, wdg::FaultKind::kSilentDrop}) {
      // A healthy run first, so the scratch file already holds what an
      // earlier run wrote.
      ASSERT_TRUE(Run(shape.executor, shape.site).ok()) << shape.site;
      Inject(shape.site, kind);
      EXPECT_EQ(Run(shape.executor, shape.site).code(), wdg::StatusCode::kCorruption)
          << shape.site << " under " << wdg::FaultKindName(kind);
      injector_.Remove("f");
    }
  }
}

TEST_F(StandardExecutorsTest, AppendKeepsItsScratchLogBounded) {
  const ExecutorFn append = ScratchAppendExecutor(disk_);
  const std::string log = wdg::SimDisk::ScratchPath("probe_checker", "probe.log");
  int64_t largest = 0;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(Run(append, "disk.append").ok());
    const auto size = disk_.Size(log);
    largest = std::max(largest, size.ok() ? *size : 0);
  }
  EXPECT_LE(largest, 64 * 1024);
  EXPECT_GT(largest, 60 * 1024);  // the log did reach the limit and was purged
}

TEST_F(StandardExecutorsTest, BoundedLockTimesOutOnlyWhileHeld) {
  std::timed_mutex mu;
  const ExecutorFn lock = BoundedLockExecutor(mu);
  EXPECT_TRUE(Run(lock, "lock.commit").ok());
  std::lock_guard<std::timed_mutex> held(mu);
  const wdg::Status status = Run(lock, "lock.commit");
  EXPECT_EQ(status.code(), wdg::StatusCode::kTimeout);
  EXPECT_NE(status.ToString().find("lock.commit"), std::string::npos);
}

TEST(StandardListenerTickTest, TimesOutOnAStaleTickOnly) {
  wdg::SimClock clock(wdg::Sec(10));
  wdg::Gauge last_tick;
  const ExecutorFn tick = ListenerTickExecutor(clock, last_tick);
  ReducedOp op;
  op.site = "net.recv.n1";
  const wdg::CheckContext ctx("c");
  EXPECT_TRUE(tick(op, ctx, "t").ok());  // never ticked: nothing to judge yet
  last_tick.Set(static_cast<double>(clock.NowNs()));
  clock.Advance(wdg::Ms(400));
  EXPECT_TRUE(tick(op, ctx, "t").ok());
  clock.Advance(wdg::Ms(200));
  EXPECT_EQ(tick(op, ctx, "t").code(), wdg::StatusCode::kTimeout);
}

TEST_F(StandardExecutorsTest, ProbeSendReachesThePeerThroughItsLinkSite) {
  wdg::Endpoint* peer = net_.CreateEndpoint("peer");
  std::atomic<bool> stop{false};
  wdg::JoiningThread responder([&] {
    while (!stop.load()) {
      const auto msg = peer->Recv(wdg::Ms(5));
      if (msg.has_value() && msg->type == "test.probe") {
        (void)peer->Reply(*msg, "ok");
      }
    }
  });
  const ExecutorFn send = ProbeSendExecutor(net_, "n1.wdg", "test.probe");
  EXPECT_TRUE(Run(send, "net.send.peer").ok());
  Inject("net.send.peer", wdg::FaultKind::kError);
  EXPECT_EQ(Run(send, "net.send.peer").code(), wdg::StatusCode::kIoError);
  injector_.Remove("f");
  EXPECT_TRUE(Run(send, "net.send.peer").ok());
  stop.store(true);
}

}  // namespace
}  // namespace awd
