// Interval-domain execution of a compiled expression tape — the abstract
// counterpart of expr::TapeExecutor, applying the shared per-op transfer
// rules of interval/interval.h over the flat instruction sequence.
//
// The reachability fixpoint re-evaluates the same next-state DAG dozens of
// times under changing interval environments; dead-branch / lint proofs
// evaluate every path constraint once under the invariant, and the
// sub-box refutation layer judges one constraint under several sub-boxes.
// The tree walk (interval::ForwardEvaluator) pays pointer-chasing and memo
// hashing per node per pass. Compiling the roots to a tape once and
// rebinding per pass turns each pass into a linear sweep over dense
// interval slots.
//
// Binding semantics match the tree walker's IntervalEnv leaves: a variable
// absent from the IntervalEnv falls back to its declared [lo, hi] domain
// (integral-hulled for non-real types); an absent array variable becomes
// size × whole(). Results are identical to the tree walk on every op (same
// transfer rules applied in the same dependency order).
#pragma once

#include <memory>
#include <vector>

#include "expr/tape.h"
#include "interval/forward.h"
#include "interval/interval.h"

namespace stcg::analysis {

/// Build one CSE-shared tape over `roots`. `roots[i]`'s slot is
/// `rootSlots[i]` on `tape`.
struct IntervalTapeBuild {
  std::shared_ptr<const expr::Tape> tape;
  std::vector<expr::SlotRef> rootSlots;
};

[[nodiscard]] IntervalTapeBuild buildIntervalTape(
    const std::vector<expr::ExprPtr>& roots);

class IntervalTapeExecutor {
 public:
  explicit IntervalTapeExecutor(std::shared_ptr<const expr::Tape> tape);

  /// (Re)bind every tape variable: from `env` when bound there, else the
  /// declared-domain default. Call before each run().
  void bind(const interval::IntervalEnv& env);

  /// Execute the full tape over interval slots.
  void run();

  [[nodiscard]] const interval::Interval& scalar(expr::SlotRef r) const {
    return scalars_[static_cast<std::size_t>(r.slot)];
  }
  [[nodiscard]] const std::vector<interval::Interval>& array(
      expr::SlotRef r) const {
    return arrays_[static_cast<std::size_t>(r.slot)];
  }

  [[nodiscard]] const expr::Tape& tape() const { return *tape_; }

 private:
  void exec(const expr::TapeInstr& in);

  std::shared_ptr<const expr::Tape> tape_;
  std::vector<interval::Interval> scalars_;
  std::vector<std::vector<interval::Interval>> arrays_;
};

/// Batch interval verdicts: compile all `roots` (scalar-typed) onto one
/// CSE-shared tape, execute it once under `env`, and return one interval
/// per root in order. Replaces N tree walks with one linear pass when many
/// constraints are judged under the same environment (dead-branch and lint
/// unreachability sweeps).
[[nodiscard]] std::vector<interval::Interval> intervalVerdicts(
    const std::vector<expr::ExprPtr>& roots, const interval::IntervalEnv& env);

}  // namespace stcg::analysis
