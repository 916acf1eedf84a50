#include "src/ir/dataflow.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>

namespace awd {

namespace {

// Nanosecond helpers; the cost model speaks ns like the rest of the runtime.
constexpr double kUs = 1e3;
constexpr double kMs = 1e6;

bool IsWriteKind(OpKind kind) {
  return kind == OpKind::kIoWrite || kind == OpKind::kIoDelete ||
         kind == OpKind::kIoCreate || kind == OpKind::kNetSend;
}

bool IsReadKind(OpKind kind) {
  return kind == OpKind::kIoRead || kind == OpKind::kNetRecv;
}

bool IsIoKind(OpKind kind) {
  switch (kind) {
    case OpKind::kIoRead:
    case OpKind::kIoWrite:
    case OpKind::kIoFsync:
    case OpKind::kIoCreate:
    case OpKind::kIoDelete:
      return true;
    default:
      return false;
  }
}

// Loop depth of every instruction index by a linear walk (clamped at 0).
std::vector<int> InstrLoopDepths(const Function& fn) {
  std::vector<int> depths;
  depths.reserve(fn.instrs.size());
  int depth = 0;
  for (const Instr& instr : fn.instrs) {
    if (instr.kind == OpKind::kLoopBegin) {
      ++depth;
    } else if (instr.kind == OpKind::kLoopEnd) {
      depth = std::max(0, depth - 1);
    }
    depths.push_back(depth);
  }
  return depths;
}

}  // namespace

double CostModel::UnitNs(OpKind kind) const {
  switch (kind) {
    case OpKind::kIoRead:
      return 1.0 * kMs;
    case OpKind::kIoWrite:
      return 2.0 * kMs;
    case OpKind::kIoFsync:
      return 5.0 * kMs;
    case OpKind::kIoCreate:
      return 2.0 * kMs;
    case OpKind::kIoDelete:
      return 1.0 * kMs;
    case OpKind::kNetSend:
      return 1.0 * kMs;  // healthy round trip on the watchdog channel
    case OpKind::kNetRecv:
      return 100.0 * kUs;  // freshness-gauge read, no blocking wait
    case OpKind::kLockAcquire:
      return 50.0 * kUs;  // uncontended try-acquire
    case OpKind::kLockRelease:
      return 10.0 * kUs;
    case OpKind::kAlloc:
      return 10.0 * kUs;
    case OpKind::kSleep:
      return 5.0 * kMs;
    case OpKind::kCompute:
      return 10.0 * kUs;
    case OpKind::kCall:
    case OpKind::kLoopBegin:
    case OpKind::kLoopEnd:
    case OpKind::kReturn:
      return 0;
  }
  return 0;
}

double CostModel::DeadlineUnitNs(OpKind kind) const {
  switch (kind) {
    // Disk ops stall, they do not block forever in a healthy run; budget a
    // generous tail per op.
    case OpKind::kIoRead:
    case OpKind::kIoDelete:
      return 10.0 * kMs;
    case OpKind::kIoWrite:
    case OpKind::kIoCreate:
      return 12.0 * kMs;
    case OpKind::kIoFsync:
      return 20.0 * kMs;
    // The runtime's network executors give up after their own probe timeout
    // (~150 ms); a legitimate run may take that long before returning an
    // error, so the hang deadline must sit above it.
    case OpKind::kNetSend:
      return 150.0 * kMs;
    case OpKind::kNetRecv:
      return 5.0 * kMs;
    // Bounded try-lock acquisition waits up to its try window.
    case OpKind::kLockAcquire:
      return 100.0 * kMs;
    case OpKind::kLockRelease:
      return 1.0 * kMs;
    case OpKind::kAlloc:
      return 1.0 * kMs;
    case OpKind::kSleep:
      return 10.0 * kMs;
    case OpKind::kCompute:
      return 1.0 * kMs;
    case OpKind::kCall:
    case OpKind::kLoopBegin:
    case OpKind::kLoopEnd:
    case OpKind::kReturn:
      return 0;
  }
  return 0;
}

ModuleDataflow::ModuleDataflow(const Module& module, CostModel model)
    : model_(model), graph_(module) {
  for (const Function& fn : module.functions()) {
    functions_[fn.name] = &fn;
    for (const Instr& instr : fn.instrs) {
      if (instr.kind == OpKind::kLockAcquire) {
        direct_locks_[fn.name].try_emplace(instr.site, instr.id);
      }
    }
  }
  ComputeSccs(module);
  ComputeSummaries(module);
  PropagateEntryLocksets(module);
}

const FunctionSummary* ModuleDataflow::Summary(const std::string& fn) const {
  const auto it = summaries_.find(fn);
  return it == summaries_.end() ? nullptr : &it->second;
}

// Tarjan's SCC algorithm. The components land in reverse topological order
// (a component is emitted only after everything it calls), which is exactly
// the order the bottom-up summary fixpoint wants.
void ModuleDataflow::ComputeSccs(const Module& module) {
  std::map<std::string, int> index;
  std::map<std::string, int> lowlink;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  int next_index = 0;

  std::function<void(const std::string&)> strongconnect = [&](const std::string& fn) {
    index[fn] = lowlink[fn] = next_index++;
    stack.push_back(fn);
    on_stack[fn] = true;
    for (const std::string& callee : graph_.CalleesOf(fn)) {
      if (index.find(callee) == index.end()) {
        strongconnect(callee);
        lowlink[fn] = std::min(lowlink[fn], lowlink[callee]);
      } else if (on_stack[callee]) {
        lowlink[fn] = std::min(lowlink[fn], index[callee]);
      }
    }
    if (lowlink[fn] == index[fn]) {
      std::vector<std::string> component;
      while (true) {
        const std::string member = stack.back();
        stack.pop_back();
        on_stack[member] = false;
        component.push_back(member);
        if (member == fn) {
          break;
        }
      }
      sccs_.push_back(std::move(component));
    }
  };

  for (const Function& fn : module.functions()) {
    if (index.find(fn.name) == index.end()) {
      strongconnect(fn.name);
    }
  }
}

void ModuleDataflow::ComputeSummaries(const Module&) {
  for (size_t scc = 0; scc < sccs_.size(); ++scc) {
    const std::vector<std::string>& members = sccs_[scc];
    const std::set<std::string> member_set(members.begin(), members.end());
    for (const std::string& name : members) {
      FunctionSummary& summary = summaries_[name];
      summary.function = name;
      summary.scc_index = static_cast<int>(scc);
      summary.recursive =
          members.size() > 1 || graph_.CalleesOf(name).count(name) > 0;
    }

    // Merge one function's direct facts plus its callees' summaries into its
    // own. Returns true when anything grew (set lattices only grow).
    const auto merge_once = [&](const std::string& name) {
      const Function* fn = functions_[name];
      FunctionSummary& summary = summaries_[name];
      bool changed = false;
      const auto add_effect = [&changed](std::map<std::string, EffectSite>& into,
                                         const std::string& site, EffectSite anchor) {
        if (into.try_emplace(site, std::move(anchor)).second) {
          changed = true;
        }
      };
      for (const Instr& instr : fn->instrs) {
        if (IsWriteKind(instr.kind)) {
          add_effect(summary.writes, instr.site,
                     EffectSite{instr.site, instr.kind, name, instr.id});
        } else if (IsReadKind(instr.kind)) {
          add_effect(summary.reads, instr.site,
                     EffectSite{instr.site, instr.kind, name, instr.id});
        }
        if (instr.kind == OpKind::kLockAcquire && summary.locks.insert(instr.site).second) {
          changed = true;
        }
        const bool io = IsIoKind(instr.kind);
        const bool net = instr.kind == OpKind::kNetSend || instr.kind == OpKind::kNetRecv;
        const bool block = instr.kind == OpKind::kSleep || instr.kind == OpKind::kLockAcquire;
        if ((io && !summary.does_io) || (net && !summary.does_net) ||
            (block && !summary.blocks)) {
          changed = true;
        }
        summary.does_io |= io;
        summary.does_net |= net;
        summary.blocks |= block;

        if (instr.kind == OpKind::kCall) {
          const auto callee_it = summaries_.find(instr.callee);
          if (callee_it == summaries_.end()) {
            continue;  // dangling call; ir.dangling-call reports it
          }
          const FunctionSummary& callee = callee_it->second;
          for (const auto& [site, anchor] : callee.writes) {
            add_effect(summary.writes, site, anchor);
          }
          for (const auto& [site, anchor] : callee.reads) {
            add_effect(summary.reads, site, anchor);
          }
          for (const std::string& site : callee.locks) {
            changed |= summary.locks.insert(site).second;
          }
          if ((callee.does_io && !summary.does_io) ||
              (callee.does_net && !summary.does_net) ||
              (callee.blocks && !summary.blocks)) {
            changed = true;
          }
          summary.does_io |= callee.does_io;
          summary.does_net |= callee.does_net;
          summary.blocks |= callee.blocks;
        }
      }
      return changed;
    };

    // Worklist fixpoint within the SCC: callees outside it are already final,
    // members feed each other until nothing grows.
    std::deque<std::string> worklist(members.begin(), members.end());
    while (!worklist.empty()) {
      const std::string name = worklist.front();
      worklist.pop_front();
      if (!merge_once(name)) {
        continue;
      }
      // This summary grew: every intra-SCC caller of `name` may grow too.
      for (const std::string& member : members) {
        if (member != name && graph_.CalleesOf(member).count(name) > 0 &&
            std::find(worklist.begin(), worklist.end(), member) == worklist.end()) {
          worklist.push_back(member);
        }
      }
    }

    // Cost: self first, then two rounds of call accumulation (enough for the
    // intra-SCC contributions to flow through), then the recursion weight.
    for (const std::string& name : members) {
      const Function* fn = functions_[name];
      const std::vector<int> depths = InstrLoopDepths(*fn);
      double self = 0;
      for (size_t i = 0; i < fn->instrs.size(); ++i) {
        self += model_.UnitNs(fn->instrs[i].kind) *
                std::pow(model_.loop_weight, depths[i]);
      }
      FunctionSummary& summary = summaries_[name];
      summary.self_cost_ns = self;
      summary.total_cost_ns = self;
    }
    for (int round = 0; round < 2; ++round) {
      for (const std::string& name : members) {
        const Function* fn = functions_[name];
        const std::vector<int> depths = InstrLoopDepths(*fn);
        FunctionSummary& summary = summaries_[name];
        double total = summary.self_cost_ns;
        for (size_t i = 0; i < fn->instrs.size(); ++i) {
          const Instr& instr = fn->instrs[i];
          if (instr.kind != OpKind::kCall) {
            continue;
          }
          const auto callee_it = summaries_.find(instr.callee);
          if (callee_it == summaries_.end() || instr.callee == name) {
            continue;  // dangling, or self-recursion (recursion_weight covers it)
          }
          total += callee_it->second.total_cost_ns *
                   std::pow(model_.loop_weight, depths[i]);
        }
        summary.total_cost_ns = total;
      }
    }
    for (const std::string& name : members) {
      FunctionSummary& summary = summaries_[name];
      if (summary.recursive) {
        summary.total_cost_ns *= model_.recursion_weight;
      }
    }
  }
}

std::vector<ModuleDataflow::ReachableWrite> ModuleDataflow::ContinuousWrites(
    const std::string& root) const {
  std::vector<ReachableWrite> result;
  const auto root_it = functions_.find(root);
  if (root_it == functions_.end()) {
    return result;
  }

  // BFS mirroring the reducer's walk — the root contributes only its
  // continuous region, callees their whole bodies — but with no depth bound.
  // BFS order makes each site's witness chain a shortest one.
  std::map<std::string, std::string> parent;  // fn → caller on first reach
  std::set<std::string> visited{root};
  std::deque<std::string> queue{root};
  std::map<std::string, size_t> site_index;  // site → slot in result

  while (!queue.empty()) {
    const std::string name = queue.front();
    queue.pop_front();
    const Function* fn = functions_.at(name);
    const bool whole_body = name != root;
    for (const int id : ContinuousInstrs(*fn, whole_body)) {
      const Instr* instr = fn->FindInstr(id);
      if (instr == nullptr) {
        continue;
      }
      if (instr->kind == OpKind::kCall) {
        if (functions_.count(instr->callee) > 0 && visited.insert(instr->callee).second) {
          parent[instr->callee] = name;
          queue.push_back(instr->callee);
        }
        continue;
      }
      if (!IsWriteKind(instr->kind) || site_index.count(instr->site) > 0) {
        continue;
      }
      ReachableWrite write;
      write.site = EffectSite{instr->site, instr->kind, name, instr->id};
      for (std::string hop = name; !hop.empty();) {
        write.chain.push_back(hop);
        const auto it = parent.find(hop);
        hop = it == parent.end() ? std::string() : it->second;
      }
      std::reverse(write.chain.begin(), write.chain.end());
      site_index[instr->site] = result.size();
      result.push_back(std::move(write));
    }
  }
  std::sort(result.begin(), result.end(),
            [](const ReachableWrite& a, const ReachableWrite& b) {
              return a.site.site < b.site.site;
            });
  return result;
}

std::vector<ModuleDataflow::LockEdge> ModuleDataflow::LockOrderEdges() const {
  std::vector<LockEdge> edges;
  std::set<std::pair<std::string, std::string>> seen;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            const std::string& fn, int id) {
    if (from == to || !seen.insert({from, to}).second) {
      return;
    }
    edges.push_back(LockEdge{from, to, fn, id});
  };

  for (const auto& [name, fn] : functions_) {
    std::vector<std::string> held;
    for (const Instr& instr : fn->instrs) {
      switch (instr.kind) {
        case OpKind::kLockAcquire:
          for (const std::string& lock : held) {
            add_edge(lock, instr.site, name, instr.id);
          }
          held.push_back(instr.site);
          break;
        case OpKind::kLockRelease: {
          const auto it = std::find(held.rbegin(), held.rend(), instr.site);
          if (it != held.rend()) {
            held.erase(std::next(it).base());
          }
          break;
        }
        case OpKind::kCall: {
          const auto callee = summaries_.find(instr.callee);
          if (callee != summaries_.end()) {
            for (const std::string& lock : held) {
              for (const std::string& acquired : callee->second.locks) {
                add_edge(lock, acquired, name, instr.id);
              }
            }
          }
          break;
        }
        default:
          break;
      }
    }
  }
  return edges;
}

std::vector<ModuleDataflow::CrossFrameReacquire> ModuleDataflow::CrossFrameReacquires()
    const {
  std::vector<CrossFrameReacquire> result;
  for (const auto& [name, fn] : functions_) {
    std::vector<std::pair<std::string, int>> held;  // site, acquire id
    for (const Instr& instr : fn->instrs) {
      switch (instr.kind) {
        case OpKind::kLockAcquire:
          held.emplace_back(instr.site, instr.id);
          break;
        case OpKind::kLockRelease: {
          const auto it = std::find_if(
              held.rbegin(), held.rend(),
              [&](const std::pair<std::string, int>& h) { return h.first == instr.site; });
          if (it != held.rend()) {
            held.erase(std::next(it).base());
          }
          break;
        }
        case OpKind::kCall: {
          const auto callee = summaries_.find(instr.callee);
          if (callee == summaries_.end()) {
            break;
          }
          for (const auto& [site, acquire_id] : held) {
            if (callee->second.locks.count(site) == 0) {
              continue;
            }
            // Witness chain: BFS from the callee through functions whose
            // summaries still carry the site, to one that acquires it.
            CrossFrameReacquire hit;
            hit.site = site;
            hit.function = name;
            hit.acquire_instr_id = acquire_id;
            hit.call_instr_id = instr.id;
            hit.callee = instr.callee;
            std::map<std::string, std::string> parent;
            std::set<std::string> visited{instr.callee};
            std::deque<std::string> queue{instr.callee};
            std::string anchor;
            while (!queue.empty() && anchor.empty()) {
              const std::string hop = queue.front();
              queue.pop_front();
              const auto direct = direct_locks_.find(hop);
              if (direct != direct_locks_.end() && direct->second.count(site) > 0) {
                anchor = hop;
                break;
              }
              for (const std::string& next : graph_.CalleesOf(hop)) {
                const auto next_summary = summaries_.find(next);
                if (next_summary != summaries_.end() &&
                    next_summary->second.locks.count(site) > 0 &&
                    visited.insert(next).second) {
                  parent[next] = hop;
                  queue.push_back(next);
                }
              }
            }
            for (std::string hop = anchor; !hop.empty();) {
              hit.chain.push_back(hop);
              const auto it = parent.find(hop);
              hop = it == parent.end() ? std::string() : it->second;
            }
            std::reverse(hit.chain.begin(), hit.chain.end());
            result.push_back(std::move(hit));
          }
          break;
        }
        default:
          break;
      }
    }
  }
  return result;
}

std::vector<std::string> ModuleDataflow::LongRunningRoots() const {
  std::vector<std::string> roots;
  for (const auto& [name, function] : functions_) {
    if (function->long_running) {
      roots.push_back(name);
    }
  }
  return roots;
}

void ModuleDataflow::PropagateEntryLocksets(const Module& module) {
  for (const Function& root : module.functions()) {
    if (!root.long_running) {
      continue;
    }
    // Top-down worklist from this root (≈ one thread), entering with nothing
    // held. Every distinct lockset observed at a call site flows to the
    // callee's entry set, capped at kMaxLocksets per function.
    std::deque<std::pair<std::string, std::set<std::string>>> worklist;
    worklist.emplace_back(root.name, std::set<std::string>{});
    entry_locksets_[root.name][root.name].push_back({});
    while (!worklist.empty()) {
      auto [name, entry] = worklist.front();
      worklist.pop_front();
      const auto fn_it = functions_.find(name);
      if (fn_it == functions_.end()) {
        continue;
      }
      std::set<std::string> held = entry;
      for (const Instr& instr : fn_it->second->instrs) {
        switch (instr.kind) {
          case OpKind::kLockAcquire:
            held.insert(instr.site);
            break;
          case OpKind::kLockRelease:
            held.erase(instr.site);
            break;
          case OpKind::kCall: {
            if (functions_.count(instr.callee) == 0) {
              break;
            }
            auto& sets = entry_locksets_[instr.callee][root.name];
            if (std::find(sets.begin(), sets.end(), held) == sets.end() &&
                static_cast<int>(sets.size()) < kMaxLocksets) {
              sets.push_back(held);
              worklist.emplace_back(instr.callee, held);
            }
            break;
          }
          default:
            break;
        }
      }
    }
  }
}

std::vector<std::pair<std::string, std::set<std::string>>> ModuleDataflow::LocksetsBefore(
    const std::string& fn, int instr_id) const {
  std::vector<std::pair<std::string, std::set<std::string>>> result;
  const auto fn_it = functions_.find(fn);
  const auto entry_it = entry_locksets_.find(fn);
  if (fn_it == functions_.end() || entry_it == entry_locksets_.end()) {
    return result;
  }
  for (const auto& [root, entries] : entry_it->second) {
    std::vector<std::set<std::string>> distinct;
    for (const std::set<std::string>& entry : entries) {
      std::set<std::string> held = entry;
      for (const Instr& instr : fn_it->second->instrs) {
        if (instr.id == instr_id) {
          break;  // lockset just before the instruction executes
        }
        if (instr.kind == OpKind::kLockAcquire) {
          held.insert(instr.site);
        } else if (instr.kind == OpKind::kLockRelease) {
          held.erase(instr.site);
        }
      }
      if (std::find(distinct.begin(), distinct.end(), held) == distinct.end()) {
        distinct.push_back(held);
      }
    }
    for (std::set<std::string>& held : distinct) {
      result.emplace_back(root, std::move(held));
    }
  }
  return result;
}

}  // namespace awd
