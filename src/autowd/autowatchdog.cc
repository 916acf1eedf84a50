#include "src/autowd/autowatchdog.h"

#include <algorithm>
#include <memory>

#include "src/common/logging.h"

namespace awd {

GenerationReport Analyze(const Module& module, ReducerOptions options) {
  GenerationReport report;
  Reducer reducer(module, std::move(options));
  report.program = reducer.Reduce();
  report.plan = InferContexts(report.program);
  for (const ReducedFunction& fn : report.program.functions) {
    report.checker_names.push_back(fn.name);
  }
  return report;
}

std::vector<std::string> UnfiredHooks(const HookPlan& plan, wdg::HookSet& hooks) {
  std::vector<std::string> unfired;
  for (const HookPoint& point : plan.points) {
    if (hooks.Site(point.hook_site)->fired_count() == 0) {
      unfired.push_back(point.hook_site);
    }
  }
  return unfired;
}

GenerationReport Generate(const Module& module, wdg::HookSet& hooks,
                          const OpExecutorRegistry& registry, wdg::WatchdogDriver& driver,
                          GenerationOptions options) {
  GenerationReport report = Analyze(module, options.reducer);

  // Price each checker statically; the deadline bound becomes a per-checker
  // prior the driver uses as its hang deadline. A prior can only tighten the
  // configured timeout, never loosen it.
  std::map<std::string, wdg::DurationNs> priors;
  if (options.cost_prior.enabled) {
    for (const CheckerCostEstimate& estimate :
         EstimateCheckerCosts(module, report.program)) {
      const wdg::DurationNs prior =
          std::min(estimate.DeadlinePrior(options.cost_prior), options.checker.timeout);
      if (prior > 0) {
        priors[estimate.checker] = prior;
      }
    }
  }

  // Instrument P: arm each planned hook onto its context.
  for (const HookPoint& point : report.plan.points) {
    hooks.Arm(point.hook_site, point.context_name);
    ++report.hooks_armed;
  }

  // Package the checkers into the driver.
  for (const ReducedFunction& fn : report.program.functions) {
    const ContextSpec* spec = report.plan.FindContext(fn.name);
    wdg::CheckContext* context =
        spec != nullptr ? hooks.Context(spec->context_name) : nullptr;
    for (const ReducedOp& op : fn.ops) {
      if (!registry.HasExecutorFor(op.site)) {
        ++report.ops_without_executor;
        WDG_LOG(kDebug) << "no op executor for " << op.site << " (checker " << fn.name
                        << " will skip it)";
      }
    }
    wdg::CheckerOptions checker_options = options.checker;
    const auto prior = priors.find(fn.name);
    if (prior != priors.end()) {
      checker_options.deadline_prior = prior->second;
      report.deadline_priors[fn.name] = prior->second;
    }
    driver.AddChecker(
        std::make_unique<GeneratedChecker>(fn, context, &registry, checker_options));
  }
  WDG_LOG(kInfo) << SummarizeReduction(report.program) << "; hooks armed: "
                 << report.hooks_armed;
  return report;
}

}  // namespace awd
