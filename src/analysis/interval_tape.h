// Interval-domain execution of a compiled expression tape — the abstract
// counterpart of expr::TapeExecutor, mirroring IntervalEvaluator's per-op
// transfer functions over the same flat instruction sequence.
//
// The reachability fixpoint re-evaluates the same next-state DAG dozens of
// times under changing interval environments; dead-branch / lint proofs
// evaluate every path constraint once under the invariant. Both walks pay
// the tree Evaluator's pointer-chasing and memo hashing per node per pass.
// Compiling the roots to a tape once and rebinding per pass turns each
// pass into a linear sweep over dense interval slots.
//
// Binding semantics match IntervalEvaluator: a variable absent from the
// IntervalEnv falls back to its declared [lo, hi] domain (integral-hulled
// for non-real types); an absent array variable becomes size × whole().
// Results are identical to the tree walk on every op (same transfer
// functions applied in the same dependency order).
#pragma once

#include <memory>
#include <vector>

#include "analysis/interval_eval.h"
#include "expr/tape.h"
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
  void bind(const IntervalEnv& env);

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

/// B-lane interval execution: the same tape evaluated under `lanes`
/// independent interval environments per run(), slots laid out lane-major
/// (`[slot * lanes + lane]`) with the instruction loop outside and the
/// lane loop inside — the abstract counterpart of expr::BatchTapeExecutor.
/// The sub-box refutation layer of analysis::proveConstraintDeadFrom binds
/// one candidate sub-box per lane and refutes all of them in one sweep;
/// each lane's result is identical to IntervalTapeExecutor under that
/// lane's environment (both apply the same per-op transfers).
class BatchIntervalTapeExecutor {
 public:
  /// `lanes` is clamped to >= 1. The tape is shared, never copied.
  BatchIntervalTapeExecutor(std::shared_ptr<const expr::Tape> tape,
                            int lanes);

  [[nodiscard]] int lanes() const { return lanes_; }

  /// (Re)bind every tape variable of `lane`: from `env` when bound there,
  /// else the declared-domain default (IntervalTapeExecutor::bind, per
  /// lane). Call for every lane before each run().
  void bind(int lane, const IntervalEnv& env);

  /// Execute the full tape across all lanes.
  void run();

  [[nodiscard]] const interval::Interval& scalar(expr::SlotRef r,
                                                 int lane) const {
    return scalars_[idx(r.slot, lane)];
  }
  [[nodiscard]] const std::vector<interval::Interval>& array(
      expr::SlotRef r, int lane) const {
    return arrays_[idx(r.slot, lane)];
  }

  [[nodiscard]] const expr::Tape& tape() const { return *tape_; }

 private:
  [[nodiscard]] std::size_t idx(std::int32_t slot, int lane) const {
    return static_cast<std::size_t>(slot) * static_cast<std::size_t>(lanes_) +
           static_cast<std::size_t>(lane);
  }
  void exec(const expr::TapeInstr& in);

  std::shared_ptr<const expr::Tape> tape_;
  int lanes_ = 1;
  std::vector<interval::Interval> scalars_;  // [slot * lanes + lane]
  std::vector<std::vector<interval::Interval>> arrays_;
};

/// Batch interval verdicts: compile all `roots` (scalar-typed) onto one
/// CSE-shared tape, execute it once under `env`, and return one interval
/// per root in order. Replaces N tree walks with one linear pass when many
/// constraints are judged under the same environment (dead-branch and lint
/// unreachability sweeps).
[[nodiscard]] std::vector<interval::Interval> intervalVerdicts(
    const std::vector<expr::ExprPtr>& roots, const IntervalEnv& env);

/// Lane-parallel form: judge the same `roots` under every environment in
/// `envs` with one tape build and one B-wide batched pass (B =
/// envs.size()). out[e][i] is roots[i]'s verdict under envs[e], identical
/// to intervalVerdicts(roots, envs[e])[i]. The workhorse of sub-box
/// refutation: each environment is one candidate sub-box.
[[nodiscard]] std::vector<std::vector<interval::Interval>>
intervalVerdictsBatch(const std::vector<expr::ExprPtr>& roots,
                      const std::vector<IntervalEnv>& envs);

}  // namespace stcg::analysis
