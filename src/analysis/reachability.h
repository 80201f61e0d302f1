// Interval reachability analysis and dead-branch pre-verification.
//
// The paper's Discussion observes that STCG wastes solver time attempting
// branches whose conditions are "perpetually false" (the LEDLC Switch-Case
// default arm), and suggests verifying unreachable branches "using the
// formal method to improve efficiency". This module implements that
// suggestion as an abstract interpretation:
//
//   1. Compute a state invariant: one interval per state element,
//      over-approximating every reachable value. Starting from the initial
//      state, the next-state functions are evaluated on interval domains
//      (inputs at their declared ranges) and the result is hulled into the
//      invariant until fixpoint, with widening after a few iterations.
//      Saturations, table clamps and chart-state structure keep the
//      invariant tight in practice.
//
//   2. A branch whose path constraint evaluates to definitely-false under
//      the invariant (and full input ranges) can never execute: it is
//      *provably dead*. Soundness follows from the evaluator's
//      over-approximation — a dead verdict is a proof, while "possibly
//      live" says nothing.
//
// StcgGenerator consumes the report via GenOptions::pruneProvablyDead.
#pragma once

#include <string>
#include <vector>

#include "compile/compiled_model.h"
#include "interval/forward.h"

namespace stcg::analysis {

struct ReachabilityOptions {
  int maxIterations = 64;  // fixpoint iteration cap
  int widenAfter = 12;     // iterations before widening kicks in
  /// Escalate inconclusive interval verdicts to an exhaustive solver
  /// query: the branch's path constraint is solved with the scalar state
  /// leaves as bounded variables (domains from the invariant); a proven
  /// UNSAT is a dead-branch proof even where plain interval evaluation is
  /// too coarse (e.g. the LEDLC Switch-Case default needs case splits on
  /// the mode variable). Constraints still containing array state are
  /// left at the interval verdict.
  bool solverBackedProofs = true;
  std::int64_t solverBudgetMillis = 60;  // per-branch proof budget
};

/// The state invariant: interval domains per state variable (elementwise
/// for arrays), plus convergence metadata.
struct StateInvariant {
  interval::IntervalEnv env;
  bool converged = false;
  int iterations = 0;
};

/// Iterate the abstract step function to a (possibly widened) fixpoint.
[[nodiscard]] StateInvariant computeStateInvariant(
    const compile::CompiledModel& cm, const ReachabilityOptions& opt = {});

struct DeadBranchReport {
  std::vector<int> deadBranches;  // branch ids proven unreachable
  StateInvariant invariant;

  [[nodiscard]] bool isDead(int branchId) const;
};

/// Prove branches unreachable under the state invariant.
[[nodiscard]] DeadBranchReport findDeadBranches(
    const compile::CompiledModel& cm, const ReachabilityOptions& opt = {});

/// Attempt to prove an arbitrary boolean constraint over (inputs, state)
/// unsatisfiable from every reachable state. Four escalating layers:
/// (1) forward interval evaluation under the invariant, (2) HC4
/// contraction of the invariant-bounded box (inputs + scalar state),
/// (3) sub-box refutation: the box is bisected along its widest
/// dimensions (integer dims between integers, so a small mode domain
/// decomposes into exact cases) into up to 8 sub-boxes covering it, and
/// the constraint's interval tape, built once, is run under each in turn;
/// definitely-false under all of them is a dead proof — and (4) an
/// exhaustive solver refutation when solverBackedProofs is set. A true result is a proof;
/// false means "possibly satisfiable". Constraints over array state stop
/// after layer (1).
[[nodiscard]] bool proveConstraintDead(const compile::CompiledModel& cm,
                                       const StateInvariant& inv,
                                       const expr::ExprPtr& constraint,
                                       const ReachabilityOptions& opt = {});

/// Layers (2) and (3) of proveConstraintDead, given a precomputed layer-(1)
/// interval verdict for `constraint` under the invariant. Callers judging
/// many constraints under one environment batch layer (1) through a single
/// tape pass (analysis::intervalVerdicts) and escalate survivors here.
[[nodiscard]] bool proveConstraintDeadFrom(const compile::CompiledModel& cm,
                                           const StateInvariant& inv,
                                           const expr::ExprPtr& constraint,
                                           const interval::Interval& verdict,
                                           const ReachabilityOptions& opt = {});

/// Human-readable rendering of the invariant (diagnostics).
[[nodiscard]] std::string renderInvariant(const compile::CompiledModel& cm,
                                          const StateInvariant& inv);

}  // namespace stcg::analysis
