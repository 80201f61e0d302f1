// Forward interval evaluation of expression DAGs: the one tree walker.
//
// The walker computes, per DAG node, an interval enclosing every value the
// node can take when its leaves range over their bound domains, applying
// the per-op transfer rules of interval/interval.h. It serves three
// callers:
//   - HC4's forward pass (interval/hc4.h), leaves read from a solver Box;
//     the backward pass then reads the per-node memo this walk leaves;
//   - lint's hazard checks and the reachability tests, leaves read from an
//     IntervalEnv (scalar and array state bound to interval domains);
//   - the differential tests of the interval tape executor
//     (analysis/interval_tape.h), which runs the same rules over a tape.
//
// kIte arms are lazy: a decided condition evaluates only the taken arm,
// so an untaken arm leaves no memo entry.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "expr/expr.h"
#include "interval/box.h"
#include "interval/interval.h"

namespace stcg::interval {

/// Interval bindings for scalar and array variables.
class IntervalEnv {
 public:
  void set(expr::VarId id, Interval iv);
  void setArray(expr::VarId id, std::vector<Interval> elems);

  [[nodiscard]] bool has(expr::VarId id) const;
  [[nodiscard]] bool hasArray(expr::VarId id) const;
  [[nodiscard]] const Interval& get(expr::VarId id) const;
  [[nodiscard]] const std::vector<Interval>& getArray(expr::VarId id) const;

 private:
  std::unordered_map<expr::VarId, Interval> scalars_;
  std::unordered_map<expr::VarId, std::vector<Interval>> arrays_;
};

/// Declared domain of a scalar variable: [lo, hi], integral-hulled for
/// non-real types — what an IntervalEnv leaf falls back to when unbound.
[[nodiscard]] Interval declaredDomain(double lo, double hi, expr::Type type);

/// Memoizing forward walk. Sound: the concrete value of an evaluated node
/// under any concretization of the leaves lies in its interval.
///
/// Leaves, by binding:
///   - IntervalEnv: a bound variable reads its env domain; an unbound one
///     its declared [lo, hi] (integral-hulled for non-real types); an
///     unbound array variable is size × whole().
///   - Box: a scalar variable reads its box domain ∩ its declared domain;
///     an array variable (no box domain) is size × whole().
class ForwardEvaluator {
 public:
  /// No leaves bound: call bind() before evaluating.
  ForwardEvaluator() = default;
  explicit ForwardEvaluator(const IntervalEnv& env) { bind(env); }

  /// Read leaves from `env` (resp. `box`, by reference: later narrowing of
  /// the box is seen by nodes evaluated afterwards) and forget every
  /// memoized value. Pinned roots are kept.
  void bind(const IntervalEnv& env);
  void bind(const Box& box);

  /// Evaluate a root, pinning it so its memo entries cannot go stale
  /// (node addresses could otherwise be recycled between calls).
  [[nodiscard]] Interval evalScalar(const expr::ExprPtr& e);
  /// The array form; the reference lives until the next bind().
  [[nodiscard]] const std::vector<Interval>& evalArray(
      const expr::ExprPtr& e);

  /// Memoized interval of a scalar node, or nullptr when no walk since
  /// the last bind() reached it.
  [[nodiscard]] const Interval* find(const expr::Expr* e) const;
  /// Memoized (or now evaluated) domain of an array node reachable from a
  /// pinned root; the reference lives until the next bind().
  [[nodiscard]] const std::vector<Interval>& array(const expr::Expr* e);

  /// Number of distinct roots currently pinned (regression hook: reusing
  /// one evaluator across many calls on the same root must not grow this).
  [[nodiscard]] std::size_t pinnedRootCount() const {
    return pinnedRoots_.size();
  }

 private:
  void pin(const expr::ExprPtr& e);
  Interval scalar(const expr::Expr* e);
  [[nodiscard]] Interval leaf(const expr::Expr* e) const;

  const IntervalEnv* env_ = nullptr;
  const Box* box_ = nullptr;
  std::unordered_map<const expr::Expr*, Interval> memo_;
  std::unordered_map<const expr::Expr*, std::vector<Interval>> arrayMemo_;
  std::vector<expr::ExprPtr> pinnedRoots_;
  std::unordered_set<const expr::Expr*> pinnedSet_;
};

}  // namespace stcg::interval
