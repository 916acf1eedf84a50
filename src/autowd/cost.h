// Static checker cost estimates (cost.static-estimate) and the deadline
// priors they seed.
//
// Without a prior every checker's hang deadline is the one global static
// timeout (docs/DRIVER.md). The interprocedural cost model gives each checker
// its own: each reduced checker's ops are priced twice —
//
//   run_cost_ns       Σ CostModel::UnitNs(kind): the typical healthy-path
//                     cost of one check, for reports and cost-aware selection;
//   deadline_bound_ns Σ CostModel::DeadlineUnitNs(kind): the worst a
//                     *legitimate* run can take (bounded try-locks, network
//                     probe timeouts), which is what a hang deadline must
//                     clear.
//
// DeadlinePrior() turns the bound into a per-checker CheckerOptions::
// deadline_prior — clamp(bound × multiplier, floor, ceiling) — which
// Generate() caps at the configured static timeout so a prior can tighten a
// deadline but never loosen one the caller chose. tools/wdg_lint --emit-costs
// prints the same annotations machine-readably.
#pragma once

#include <string>
#include <vector>

#include "src/autowd/reduce.h"
#include "src/common/clock.h"
#include "src/ir/dataflow.h"
#include "src/ir/verifier.h"

namespace awd {

// How deadline priors are derived from the static bound. Defaults leave
// generous slack: a prior only ever declares a checker hung after 4× the
// worst legitimate run, never under 200 ms, never over a 2 s ceiling.
struct CostPriorOptions {
  bool enabled = true;
  double multiplier = 4.0;
  wdg::DurationNs floor = wdg::Ms(200);
  wdg::DurationNs ceiling = wdg::Sec(2);
};

struct CheckerCostEstimate {
  std::string checker;  // reduced function name
  std::string origin;   // long-running root in P
  int ops = 0;
  double run_cost_ns = 0;        // typical healthy-path cost of one check
  double deadline_bound_ns = 0;  // worst-case legitimate run (Σ op bounds)
  // Loop-weighted static cost of the origin region in P — how hot the
  // mimicked code is, the ranking input for cost-aware checker selection.
  double origin_weight_ns = 0;

  // clamp(deadline_bound_ns × multiplier, floor, ceiling); 0 when disabled.
  wdg::DurationNs DeadlinePrior(const CostPriorOptions& options) const;
};

// One estimate per reduced checker, priced with `model`.
std::vector<CheckerCostEstimate> EstimateCheckerCosts(
    const Module& module, const ReducedProgram& program,
    const CostModel& model = CostModel::Default());

// cost.static-estimate: one informational note per checker carrying the
// estimate and the deadline prior it would seed.
void CheckStaticCosts(const Module& module, const ReducedProgram& program,
                      std::vector<Finding>& findings);

// Machine-readable annotations for wdg_lint --emit-costs: a JSON array of
// {checker, origin, ops, run_cost_us, deadline_bound_us, deadline_prior_ms,
// origin_weight_us} objects.
std::string FormatCostsJson(const std::vector<CheckerCostEstimate>& estimates,
                            const CostPriorOptions& options = {});

}  // namespace awd
