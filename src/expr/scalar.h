// Typed scalar values flowing through models and expressions.
//
// Three primitive types mirror the Simulink signal types the paper's models
// use: boolean, (64-bit) integer and (double) real. A Value is a fixed-width
// vector of scalars of one type and models a (possibly wide) Simulink signal
// or an internal state element such as a Delay buffer or data-store array.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace stcg::expr {

enum class Type { kBool, kInt, kReal };

[[nodiscard]] const char* typeName(Type t);

/// The canonical saturating real -> int64 conversion every engine shares:
/// non-finite maps to 0, values beyond ±9.2e18 clamp to INT64_MAX/MIN
/// (the nearest representable int64 boundaries a double can express), and
/// everything else truncates toward zero. Scalar::toInt and the batch
/// executor's lane kernels are both this one function, so the engines
/// cannot drift on the cast edge cases.
[[nodiscard]] inline std::int64_t saturatingRealToInt(double r) {
  if (!std::isfinite(r)) return 0;
  if (r >= 9.2e18) return INT64_MAX;
  if (r <= -9.2e18) return INT64_MIN;
  return static_cast<std::int64_t>(r);
}

/// One typed scalar. Immutable after construction.
class Scalar {
 public:
  Scalar() : v_(std::int64_t{0}) {}
  static Scalar b(bool x) { return Scalar(x); }
  static Scalar i(std::int64_t x) { return Scalar(x); }
  static Scalar r(double x) { return Scalar(x); }

  [[nodiscard]] Type type() const;

  [[nodiscard]] bool asBool() const;        // requires kBool
  [[nodiscard]] std::int64_t asInt() const; // requires kInt
  [[nodiscard]] double asReal() const;      // requires kReal

  /// Numeric view: bool -> 0/1, int -> double, real -> itself.
  [[nodiscard]] double toReal() const;
  /// Integer view: bool -> 0/1, real -> truncated toward zero.
  [[nodiscard]] std::int64_t toInt() const;
  /// Truthiness: nonzero numerics are true.
  [[nodiscard]] bool toBool() const;

  /// Convert to exactly `t` using the coercions above.
  [[nodiscard]] Scalar castTo(Type t) const;

  [[nodiscard]] bool operator==(const Scalar& o) const { return v_ == o.v_; }
  [[nodiscard]] bool operator!=(const Scalar& o) const { return !(*this == o); }

  [[nodiscard]] std::string toString() const;

 private:
  explicit Scalar(bool x) : v_(x) {}
  explicit Scalar(std::int64_t x) : v_(x) {}
  explicit Scalar(double x) : v_(x) {}
  std::variant<bool, std::int64_t, double> v_;
};

/// A width-N signal value: N scalars of a single type. Width-1 values are
/// ubiquitous; arrays back Delay buffers, data stores and queues.
class Value {
 public:
  Value() : type_(Type::kInt) {}
  explicit Value(Scalar s) : type_(s.type()), elems_{s} {}
  Value(Type t, std::vector<Scalar> elems);

  /// A width-n value with every element equal to `fill`.
  static Value splat(Scalar fill, int n);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] int width() const { return static_cast<int>(elems_.size()); }
  [[nodiscard]] bool isScalar() const { return elems_.size() == 1; }

  [[nodiscard]] const Scalar& at(int i) const { return elems_.at(i); }
  void set(int i, Scalar s);

  /// The single element of a width-1 value.
  [[nodiscard]] const Scalar& scalar() const { return elems_.at(0); }

  [[nodiscard]] const std::vector<Scalar>& elems() const { return elems_; }

  [[nodiscard]] bool operator==(const Value& o) const {
    return type_ == o.type_ && elems_ == o.elems_;
  }
  [[nodiscard]] bool operator!=(const Value& o) const { return !(*this == o); }

  [[nodiscard]] std::string toString() const;

 private:
  Type type_;
  std::vector<Scalar> elems_;
};

}  // namespace stcg::expr
