// Interprocedural dataflow over the mini-IR.
//
// Everything in src/ir/verifier.h reasons one frame at a time; the reducer
// (src/autowd/reduce.h) follows calls but deliberately bounds its walk
// (max_call_depth, recursion guard), so a destructive op sixteen calls deep
// simply never reaches the artifact-level isolation check. This module closes
// that gap with a classic bottom-up summary analysis:
//
//   1. Build the call graph and collapse it into strongly connected
//      components (Tarjan), ordered callees-first.
//   2. For each SCC, run a worklist fixpoint computing one FunctionSummary
//      per function: the transitive write/read effect sets (with the concrete
//      instruction each site anchors to), the lock sites the function may
//      acquire, coarse effect flags, and a loop-weighted static cost.
//      Set-valued facts live in finite lattices, so the fixpoint terminates
//      without widening; the cost component iterates a bounded number of
//      times inside an SCC and then applies a recursion weight.
//   3. On top of the summaries: depth-unbounded reachable-write queries with
//      call chains (the effect.* proofs), interprocedural lock-order edges
//      and cross-frame reacquire detection (lock.interproc-order), and
//      top-down entry-lockset propagation from the long-running roots —
//      each root approximates one thread — for the race.hook-context pass.
//
// The cost model here is intentionally static and nominal: per-OpKind unit
// latencies for "how expensive is one run of this code" plus per-OpKind
// worst-case bounds (mirroring the runtime executors' own try/probe limits)
// for "how long until this code is definitely hung". cost.static-estimate
// and the autowd deadline priors are both derived from it (src/autowd/cost.h).
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/analysis.h"
#include "src/ir/ir.h"

namespace awd {

// Static cost assumptions, tunable per deployment. Defaults approximate the
// sim runtimes this repo ships (SimDisk/SimNet latencies, bounded try-locks).
struct CostModel {
  // Charged iterations per loop nesting level when weighting a region's cost.
  double loop_weight = 8.0;
  // Extra factor applied to functions participating in a call cycle: the
  // fixpoint walks a cycle once, real executions may not.
  double recursion_weight = 4.0;

  // Typical healthy-path latency of one op of this kind, in nanoseconds.
  double UnitNs(OpKind kind) const;
  // Worst-case bound before the op itself gives up, in nanoseconds: bounded
  // try-locks, network probe timeouts, fsync stalls. Deadline priors sum
  // these — a hang deadline must exceed the slowest *legitimate* run.
  double DeadlineUnitNs(OpKind kind) const;

  static CostModel Default() { return CostModel{}; }
};

// One effectful operation, anchored to the instruction that performs it.
struct EffectSite {
  std::string site;
  OpKind kind = OpKind::kCompute;
  std::string function;
  int instr_id = 0;
};

// Bottom-up summary of one function: everything it may do, directly or
// through any chain of calls.
struct FunctionSummary {
  std::string function;
  int scc_index = -1;      // position of its SCC in callee-first order
  bool recursive = false;  // member of a call cycle (including self-calls)

  // Transitive effect sets, site → first anchor observed. `writes` covers the
  // destructive kinds (kIoWrite, kIoDelete, kIoCreate, kNetSend); `reads`
  // covers kIoRead and kNetRecv.
  std::map<std::string, EffectSite> writes;
  std::map<std::string, EffectSite> reads;
  // Lock sites this function may acquire, directly or transitively.
  std::set<std::string> locks;
  // Coarse effect flags for quick queries.
  bool does_io = false;
  bool does_net = false;
  bool blocks = false;  // may sleep or acquire a lock

  // Loop-weighted static cost of one invocation, in nanoseconds.
  double self_cost_ns = 0;   // this function's own ops only
  double total_cost_ns = 0;  // + callees, weighted by their call sites' loops
};

class ModuleDataflow {
 public:
  explicit ModuleDataflow(const Module& module, CostModel model = CostModel::Default());
  // The analysis borrows `module` for its lifetime; a temporary would dangle.
  explicit ModuleDataflow(Module&& module, CostModel model = CostModel::Default()) = delete;

  const FunctionSummary* Summary(const std::string& fn) const;
  // SCCs in callee-first (reverse topological) order; summary fixpoints run
  // in exactly this order.
  const std::vector<std::vector<std::string>>& SccOrder() const { return sccs_; }
  const CostModel& cost_model() const { return model_; }

  // A destructive site reachable from a root's continuous region, with one
  // shortest call chain (root first, anchor function last) as the witness.
  struct ReachableWrite {
    EffectSite site;
    std::vector<std::string> chain;
  };
  // Depth-unbounded version of the reducer's walk: every destructive op
  // reachable from `root`'s continuous region through any number of calls.
  // This is what the effect.* proofs quantify over — the reducer's bounded
  // walk is a subset of it by construction.
  std::vector<ReachableWrite> ContinuousWrites(const std::string& root) const;

  // Interprocedural lock-order edge: `from` is held while `to` is acquired,
  // either directly or anywhere in the callee reached from the pinned call.
  struct LockEdge {
    std::string from;
    std::string to;
    std::string function;  // frame holding `from`
    int instr_id = 0;      // acquire or call instruction creating the edge
  };
  std::vector<LockEdge> LockOrderEdges() const;

  // A lock held across a call whose callee may (transitively) acquire the
  // same site again — self-deadlock on a non-reentrant lock. Per-frame
  // analysis cannot see this: the cycle-detector drops self-edges and the
  // reacquire check only looks at the current frame's held stack.
  struct CrossFrameReacquire {
    std::string site;
    std::string function;   // frame holding the lock
    int acquire_instr_id = 0;
    int call_instr_id = 0;
    std::string callee;
    std::vector<std::string> chain;  // callee → ... → function re-acquiring
  };
  std::vector<CrossFrameReacquire> CrossFrameReacquires() const;

  // The module's long-running roots, in name order. Each root
  // approximates one main-program thread; the effect.* proofs quantify over
  // these rather than the reduced checkers, so a root whose every vulnerable
  // op fell past the reducer's horizon (empty checker, dropped) still gets
  // its escapes reported.
  std::vector<std::string> LongRunningRoots() const;

  // Locksets that may be held just before `instr_id` of `fn`, one entry per
  // (root, distinct lockset): entry locksets propagated top-down from the
  // roots, plus the intra-function lockset at that point. Capped at
  // kMaxLocksets distinct entry sets per function.
  std::vector<std::pair<std::string, std::set<std::string>>> LocksetsBefore(
      const std::string& fn, int instr_id) const;

  static constexpr int kMaxLocksets = 8;

 private:
  void ComputeSccs(const Module& module);
  void ComputeSummaries(const Module&);
  void PropagateEntryLocksets(const Module& module);

  CostModel model_;
  CallGraph graph_;
  std::map<std::string, const Function*> functions_;
  std::map<std::string, FunctionSummary> summaries_;
  std::vector<std::vector<std::string>> sccs_;
  // Direct (own-frame) lock acquires per function, site → acquire instr id.
  std::map<std::string, std::map<std::string, int>> direct_locks_;
  // fn → root → distinct locksets possibly held at entry when reached from
  // that root.
  std::map<std::string, std::map<std::string, std::vector<std::set<std::string>>>>
      entry_locksets_;
};

}  // namespace awd
