// Checker synthesis: turn a ReducedFunction into an executable mimic checker.
//
// A GeneratedChecker walks its reduced ops in order. Each op is executed
// through the OpExecutorRegistry — the runtime half of mimicry: the monitored
// system registers, per op site, how to re-execute that operation *safely*
// (scratch-redirected writes, bounded try-locks, probe messages on real
// channels). Because executors go through the same fault sites as the main
// program, injected gray failures hit the checker the same way they hit the
// program — fate sharing by construction.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/autowd/context_infer.h"
#include "src/autowd/reduce.h"
#include "src/watchdog/checker.h"
#include "src/watchdog/context.h"

namespace awd {

// How one runtime op site is mimicked. Returns the op's status; a kTimeout
// maps to a liveness signature, kCorruption to a safety signature. Executors
// that block under an injected hang are caught by the driver's deadline.
using ExecutorFn = std::function<wdg::Status(const ReducedOp& op, const wdg::CheckContext& ctx,
                                             const std::string& checker_name)>;

class OpExecutorRegistry {
 public:
  // `site_pattern` uses the same matching as fault sites: exact, "prefix.*",
  // or "*". First registered match wins (register specific before generic).
  void Register(std::string site_pattern, ExecutorFn executor);

  bool HasExecutorFor(const std::string& site) const;

  // UNIMPLEMENTED when no executor matches — the checker skips such ops.
  wdg::Status Execute(const ReducedOp& op, const wdg::CheckContext& ctx,
                      const std::string& checker_name) const;

 private:
  std::vector<std::pair<std::string, ExecutorFn>> entries_;
};

// The synthesized mimic checker (cf. Figure 3's generated class).
class GeneratedChecker : public wdg::Checker {
 public:
  GeneratedChecker(ReducedFunction reduced, wdg::CheckContext* context,
                   const OpExecutorRegistry* registry, wdg::CheckerOptions options = {});

  wdg::CheckResult Check() override;

  const ReducedFunction& reduced() const { return reduced_; }
  int64_t ops_executed() const { return ops_executed_; }
  int64_t ops_skipped() const { return ops_skipped_; }

 private:
  ReducedFunction reduced_;
  wdg::CheckContext* context_;
  const OpExecutorRegistry* registry_;
  int64_t ops_executed_ = 0;  // driver serializes executions per checker
  int64_t ops_skipped_ = 0;
};

wdg::FailureType ClassifyOpFailure(wdg::StatusCode code);

}  // namespace awd
