// Interval arithmetic over doubles, with integer-aware rounding.
//
// The solver works on boxes (one interval per input variable) and contracts
// them with HC4. Booleans are encoded as subintervals of [0, 1]:
// [0,0] = definitely false, [1,1] = definitely true, [0,1] = unknown.
// All intervals are closed; an interval with lo > hi is empty.
#pragma once

#include <string>
#include <vector>

#include "expr/expr.h"

namespace stcg::interval {

class Interval {
 public:
  /// Default: the empty interval.
  Interval() : lo_(1.0), hi_(-1.0) {}
  Interval(double lo, double hi) : lo_(lo), hi_(hi) {}

  static Interval empty() { return Interval(); }
  static Interval point(double v) { return Interval(v, v); }
  /// A huge but finite hull used when nothing better is known; finite so
  /// that midpoints and widths stay usable.
  static Interval whole();
  /// Boolean lattice values.
  static Interval boolFalse() { return point(0.0); }
  static Interval boolTrue() { return point(1.0); }
  static Interval boolUnknown() { return Interval(0.0, 1.0); }

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] bool isEmpty() const { return lo_ > hi_; }
  [[nodiscard]] bool isPoint() const { return lo_ == hi_; }
  [[nodiscard]] double width() const { return isEmpty() ? 0.0 : hi_ - lo_; }
  [[nodiscard]] double mid() const;
  [[nodiscard]] bool contains(double v) const {
    return !isEmpty() && lo_ <= v && v <= hi_;
  }
  [[nodiscard]] bool containsZero() const { return contains(0.0); }

  // Boolean lattice queries (for intervals representing booleans).
  [[nodiscard]] bool canBeTrue() const { return !isEmpty() && hi_ >= 1.0; }
  [[nodiscard]] bool canBeFalse() const { return !isEmpty() && lo_ <= 0.0; }
  [[nodiscard]] bool isTrue() const { return !isEmpty() && lo_ >= 1.0; }
  [[nodiscard]] bool isFalse() const { return !isEmpty() && hi_ <= 0.0; }

  [[nodiscard]] Interval intersect(const Interval& o) const;
  [[nodiscard]] Interval hull(const Interval& o) const;

  /// Shrink to integral endpoints (ceil lo, floor hi). May become empty.
  [[nodiscard]] Interval integralHull() const;

  /// Number of integers contained; huge intervals saturate.
  [[nodiscard]] double integerCount() const;

  [[nodiscard]] bool operator==(const Interval& o) const;

  [[nodiscard]] std::string toString() const;

 private:
  double lo_, hi_;
};

// Forward arithmetic. All are tight except where noted.
[[nodiscard]] Interval addI(const Interval& a, const Interval& b);
[[nodiscard]] Interval subI(const Interval& a, const Interval& b);
[[nodiscard]] Interval mulI(const Interval& a, const Interval& b);
/// Guarded division matching expression semantics (x/0 == 0). If the
/// denominator can be 0, the result hulls in 0 and is conservative.
[[nodiscard]] Interval divI(const Interval& a, const Interval& b);
/// Integer remainder hull (C++ truncated semantics), conservative.
[[nodiscard]] Interval modI(const Interval& a, const Interval& b);
[[nodiscard]] Interval negI(const Interval& a);
[[nodiscard]] Interval absI(const Interval& a);
[[nodiscard]] Interval minI(const Interval& a, const Interval& b);
[[nodiscard]] Interval maxI(const Interval& a, const Interval& b);

// Forward relational: boolean-lattice result.
[[nodiscard]] Interval ltI(const Interval& a, const Interval& b);
[[nodiscard]] Interval leI(const Interval& a, const Interval& b);
[[nodiscard]] Interval eqI(const Interval& a, const Interval& b);

// Forward boolean connectives on lattice values.
[[nodiscard]] Interval andI(const Interval& a, const Interval& b);
[[nodiscard]] Interval orI(const Interval& a, const Interval& b);
[[nodiscard]] Interval xorI(const Interval& a, const Interval& b);
[[nodiscard]] Interval notI(const Interval& a);

// Per-op forward transfer rules: the one statement of the forward interval
// semantics, shared by the tree walker (interval/forward.h, also HC4's
// forward pass) and the interval tape executor (analysis/interval_tape.h).

/// Forward image of one scalar-result op (every op except kSelect and the
/// array-result kStore/kIte) of result type `type` over operand intervals
/// `a`, `b`, `c`. Unused operands are ignored; for kIte the arm that the
/// condition `a` rules out is ignored too, so a lazy caller may pass any
/// interval for it.
[[nodiscard]] Interval intervalTransferScalar(expr::Op op, expr::Type type,
                                              const Interval& a,
                                              const Interval& b,
                                              const Interval& c);

/// kSelect: hull of the elements the integral index hull can reach, with
/// out-of-range indices clamped to the ends as in the concrete semantics.
/// Empty for an empty index or a zero-length array.
[[nodiscard]] Interval selectI(const std::vector<Interval>& arr,
                               const Interval& idx);

/// kStore, in place on `arr` (a copy of the stored-into array): a definite
/// write when the clamped index is one element, else `val` is hulled into
/// every element the index can reach. An empty index writes nothing: the
/// store is unreachable.
void storeI(std::vector<Interval>& arr, const Interval& idx,
            const Interval& val);

/// Array-result kIte into `out`: the taken arm when the condition `c` is
/// decided, else `t` hulled elementwise with `f` (over their common
/// length). The arm `c` rules out is ignored.
void iteArrayI(const Interval& c, const std::vector<Interval>& t,
               const std::vector<Interval>& f, std::vector<Interval>& out);

}  // namespace stcg::interval
