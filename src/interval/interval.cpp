#include "interval/interval.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace stcg::interval {

namespace {
constexpr double kHuge = 1e300;

Interval fromBools(bool canFalse, bool canTrue) {
  if (!canFalse && !canTrue) return Interval::empty();
  return Interval(canTrue && !canFalse ? 1.0 : 0.0,
                  canTrue ? 1.0 : 0.0);
}

/// Element range [lo, hi] an index interval can reach in an n-element
/// array (integral hull, out-of-range indices clamped to the ends). False
/// when it reaches none: an empty index or a zero-length array.
bool reachedElements(const Interval& idx, std::size_t n, std::size_t& lo,
                     std::size_t& hi) {
  const Interval i = idx.integralHull();
  if (i.isEmpty() || n == 0) return false;
  const auto last = static_cast<double>(n - 1);
  lo = static_cast<std::size_t>(std::clamp(i.lo(), 0.0, last));
  hi = static_cast<std::size_t>(std::clamp(i.hi(), 0.0, last));
  return true;
}

/// Truncation toward zero, mapped through the (monotone) endpoints.
Interval truncI(const Interval& a) {
  return a.isEmpty() ? a : Interval(std::trunc(a.lo()), std::trunc(a.hi()));
}
}  // namespace

Interval Interval::whole() { return Interval(-kHuge, kHuge); }

double Interval::mid() const {
  if (isEmpty()) return 0.0;
  if (lo_ <= -kHuge && hi_ >= kHuge) return 0.0;
  return lo_ + (hi_ - lo_) / 2.0;
}

Interval Interval::intersect(const Interval& o) const {
  if (isEmpty() || o.isEmpty()) return empty();
  return Interval(std::max(lo_, o.lo_), std::min(hi_, o.hi_));
}

Interval Interval::hull(const Interval& o) const {
  if (isEmpty()) return o;
  if (o.isEmpty()) return *this;
  return Interval(std::min(lo_, o.lo_), std::max(hi_, o.hi_));
}

Interval Interval::integralHull() const {
  if (isEmpty()) return empty();
  return Interval(std::ceil(lo_), std::floor(hi_));
}

double Interval::integerCount() const {
  const Interval h = integralHull();
  if (h.isEmpty()) return 0.0;
  return h.hi_ - h.lo_ + 1.0;
}

bool Interval::operator==(const Interval& o) const {
  if (isEmpty() && o.isEmpty()) return true;
  return lo_ == o.lo_ && hi_ == o.hi_;
}

std::string Interval::toString() const {
  if (isEmpty()) return "[]";
  return "[" + formatReal(lo_) + ", " + formatReal(hi_) + "]";
}

Interval addI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  return Interval(a.lo() + b.lo(), a.hi() + b.hi());
}

Interval subI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  return Interval(a.lo() - b.hi(), a.hi() - b.lo());
}

Interval mulI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  const double c[4] = {a.lo() * b.lo(), a.lo() * b.hi(), a.hi() * b.lo(),
                       a.hi() * b.hi()};
  double lo = c[0], hi = c[0];
  for (double v : c) {
    if (std::isnan(v)) v = 0.0;  // 0 * inf guard
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return Interval(lo, hi);
}

Interval divI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  if (b.containsZero()) {
    // The guard x/0 == 0 makes the result contain 0; around the pole the
    // quotient is unbounded, so fall back to the finite whole hull.
    if (b.isPoint()) return Interval::point(0.0);
    return Interval::whole();
  }
  const double c[4] = {a.lo() / b.lo(), a.lo() / b.hi(), a.hi() / b.lo(),
                       a.hi() / b.hi()};
  double lo = c[0], hi = c[0];
  for (double v : c) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return Interval(lo, hi);
}

Interval modI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  const double m =
      std::max(std::fabs(b.lo()), std::fabs(b.hi()));
  if (m < 1.0) return Interval::point(0.0);  // b can only be 0
  double lo = a.lo() >= 0.0 ? 0.0 : -(m - 1.0);
  double hi = a.hi() <= 0.0 ? 0.0 : (m - 1.0);
  // x % 0 == 0 by the guard, so 0 is always included (it already is).
  return Interval(lo, hi);
}

Interval negI(const Interval& a) {
  if (a.isEmpty()) return Interval::empty();
  return Interval(-a.hi(), -a.lo());
}

Interval absI(const Interval& a) {
  if (a.isEmpty()) return Interval::empty();
  if (a.lo() >= 0.0) return a;
  if (a.hi() <= 0.0) return negI(a);
  return Interval(0.0, std::max(-a.lo(), a.hi()));
}

Interval minI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  return Interval(std::min(a.lo(), b.lo()), std::min(a.hi(), b.hi()));
}

Interval maxI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  return Interval(std::max(a.lo(), b.lo()), std::max(a.hi(), b.hi()));
}

Interval ltI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  const bool canTrue = a.lo() < b.hi();
  const bool canFalse = a.hi() >= b.lo();
  return fromBools(canFalse, canTrue);
}

Interval leI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  const bool canTrue = a.lo() <= b.hi();
  const bool canFalse = a.hi() > b.lo();
  return fromBools(canFalse, canTrue);
}

Interval eqI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  const bool canTrue = !a.intersect(b).isEmpty();
  const bool canFalse = !(a.isPoint() && b.isPoint() && a.lo() == b.lo());
  return fromBools(canFalse, canTrue);
}

Interval andI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  return fromBools(a.canBeFalse() || b.canBeFalse(),
                   a.canBeTrue() && b.canBeTrue());
}

Interval orI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  return fromBools(a.canBeFalse() && b.canBeFalse(),
                   a.canBeTrue() || b.canBeTrue());
}

Interval xorI(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return Interval::empty();
  const bool canTrue = (a.canBeTrue() && b.canBeFalse()) ||
                       (a.canBeFalse() && b.canBeTrue());
  const bool canFalse = (a.canBeTrue() && b.canBeTrue()) ||
                        (a.canBeFalse() && b.canBeFalse());
  return fromBools(canFalse, canTrue);
}

Interval notI(const Interval& a) {
  if (a.isEmpty()) return Interval::empty();
  return fromBools(a.canBeTrue(), a.canBeFalse());
}

Interval intervalTransferScalar(expr::Op op, expr::Type type,
                                const Interval& a, const Interval& b,
                                const Interval& c) {
  using expr::Op;
  using expr::Type;
  switch (op) {
    case Op::kNot:
      return notI(a);
    case Op::kNeg:
      return negI(a);
    case Op::kAbs:
      return absI(a);
    case Op::kCast:
      if (type == Type::kBool) {
        // Truthiness of a numeric: 0 -> false, nonzero -> true.
        if (a.isEmpty()) return a;
        if (a.isPoint()) {
          return a.lo() == 0.0 ? Interval::boolFalse() : Interval::boolTrue();
        }
        return a.containsZero() ? Interval::boolUnknown()
                                : Interval::boolTrue();
      }
      return type == Type::kInt ? truncI(a) : a;
    case Op::kAdd:
      return addI(a, b);
    case Op::kSub:
      return subI(a, b);
    case Op::kMul:
      return mulI(a, b);
    case Op::kDiv:
      // Integer division truncates toward zero; the real-quotient interval
      // does not contain the truncated values (1/4 is 0, not 0.25).
      return type == Type::kInt ? truncI(divI(a, b)) : divI(a, b);
    case Op::kMod:
      return modI(a, b);
    case Op::kMin:
      return minI(a, b);
    case Op::kMax:
      return maxI(a, b);
    case Op::kLt:
      return ltI(a, b);
    case Op::kLe:
      return leI(a, b);
    case Op::kGt:
      return ltI(b, a);
    case Op::kGe:
      return leI(b, a);
    case Op::kEq:
      return eqI(a, b);
    case Op::kNe:
      return notI(eqI(a, b));
    case Op::kAnd:
      return andI(a, b);
    case Op::kOr:
      return orI(a, b);
    case Op::kXor:
      return xorI(a, b);
    case Op::kIte:  // scalar result; no cast, unlike the concrete engine
      if (a.isTrue()) return b;
      if (a.isFalse()) return c;
      return b.hull(c);
    default:
      return Interval::whole();
  }
}

Interval selectI(const std::vector<Interval>& arr, const Interval& idx) {
  Interval acc = Interval::empty();
  std::size_t lo = 0, hi = 0;
  if (reachedElements(idx, arr.size(), lo, hi)) {
    for (std::size_t i = lo; i <= hi; ++i) acc = acc.hull(arr[i]);
  }
  return acc;
}

void storeI(std::vector<Interval>& arr, const Interval& idx,
            const Interval& val) {
  std::size_t lo = 0, hi = 0;
  if (!reachedElements(idx, arr.size(), lo, hi)) return;
  if (lo == hi) {
    arr[lo] = val;  // definite write
    return;
  }
  for (std::size_t i = lo; i <= hi; ++i) {
    arr[i] = arr[i].hull(val);  // may or may not be written
  }
}

void iteArrayI(const Interval& c, const std::vector<Interval>& t,
               const std::vector<Interval>& f, std::vector<Interval>& out) {
  if (c.isFalse()) {
    out = f;
    return;
  }
  out = t;
  if (c.isTrue()) return;
  for (std::size_t i = 0; i < out.size() && i < f.size(); ++i) {
    out[i] = out[i].hull(f[i]);
  }
}

}  // namespace stcg::interval
