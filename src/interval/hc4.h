// HC4 (forward-backward) contraction of a box against a boolean constraint.
//
// Forward pass: the shared tree walker (interval/forward.h) evaluates an
// interval domain for every DAG node under the current box. Backward
// pass: starting from "the root must be true", push refined target
// intervals down through inverse operator rules, narrowing variable
// domains where they are reached. Iterated to (approximate)
// fixpoint. The contractor is sound: it never removes a point that could
// satisfy the constraint, so an empty result proves unsatisfiability
// within the box.
#pragma once

#include "expr/expr.h"
#include "interval/box.h"
#include "interval/forward.h"

namespace stcg::interval {

enum class ContractOutcome {
  kShrunk,     // box narrowed (still non-empty)
  kUnchanged,  // fixpoint: nothing narrowed
  kEmpty,      // box proven infeasible for the constraint
};

class Hc4Contractor {
 public:
  /// `goal` must be a boolean-typed expression; contraction enforces
  /// goal == true.
  explicit Hc4Contractor(expr::ExprPtr goal);

  /// Contract `box` in place with up to `maxPasses` forward/backward
  /// sweeps (stops early at fixpoint or emptiness).
  ContractOutcome contract(Box& box, int maxPasses = 3);

  /// Forward-only evaluation of the goal's possible truth values under
  /// `box` (no narrowing). Useful as a cheap infeasibility test.
  [[nodiscard]] Interval forwardEval(const Box& box);

 private:
  // One forward/backward sweep. Returns kEmpty on proven infeasibility.
  ContractOutcome pass(Box& box);

  // Narrow through node `e` given that its value must lie in `target`.
  // Returns false if a contradiction (empty domain) was derived.
  bool backward(const expr::Expr* e, Interval target, Box& box);

  expr::ExprPtr goal_;
  // Leaves bound to the box of the current pass; backward reads its memo.
  ForwardEvaluator fwd_;
};

}  // namespace stcg::interval
