// Per-element lane operations and the row loops of the batch engines.
//
// These inline helpers are the single source of truth for the per-lane
// semantics of expr::BatchTapeExecutor's typed fast paths and
// solver::BatchDistanceTape's overlay: each engine calls the row loops at
// the bottom of this file, which apply one helper per element and which
// the compiler is free to vectorize. Real payloads travel as raw 64-bit
// words (double bit patterns) to keep the row views strict-aliasing clean;
// std::bit_cast converts at the edges.
//
// Bit-identity notes (pinned against the scalar engines by
// tests/test_simd_batch.cpp):
//  - fminOp/fmaxOp are std::fmin/std::fmax — glibc at runtime returns the
//    FIRST operand when the arguments compare equal (fmin(+0.0, -0.0) ==
//    +0.0; do not trust the constant-folded result, which differs), the
//    non-NaN operand when exactly one side is NaN, and the SECOND operand
//    when both are NaN. tests/test_simd_batch.cpp pins the ±0 and NaN
//    lanes against TapeExecutor.
//  - divGuard/modGuard implement the engine-wide guarded x/0 == 0.
//  - Integer add/sub/neg wrap in uint64 space (two's complement), which
//    is the defined-behavior spelling of what the interpreter computes.
//  - No row loop multiplies and adds in one expression, so there is no
//    mul+add for the compiler to contract into an FMA the scalar
//    engines lack.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "expr/expr.h"

namespace stcg::expr::simd_detail {

inline double bd(std::uint64_t u) { return std::bit_cast<double>(u); }
inline std::uint64_t db(double d) { return std::bit_cast<std::uint64_t>(d); }

// ---- real lane ops (payload = double bit pattern) -----------------------

inline std::uint64_t rAddOp(std::uint64_t a, std::uint64_t b) {
  return db(bd(a) + bd(b));
}
inline std::uint64_t rSubOp(std::uint64_t a, std::uint64_t b) {
  return db(bd(a) - bd(b));
}
inline std::uint64_t rMulOp(std::uint64_t a, std::uint64_t b) {
  return db(bd(a) * bd(b));
}
inline std::uint64_t rDivGOp(std::uint64_t a, std::uint64_t b) {
  const double x = bd(a), y = bd(b);
  return db(y == 0.0 ? 0.0 : x / y);
}
inline std::uint64_t rFminOp(std::uint64_t a, std::uint64_t b) {
  return db(std::fmin(bd(a), bd(b)));
}
inline std::uint64_t rFmaxOp(std::uint64_t a, std::uint64_t b) {
  return db(std::fmax(bd(a), bd(b)));
}
inline std::uint64_t rNegOp(std::uint64_t a) { return db(-bd(a)); }
inline std::uint64_t rAbsOp(std::uint64_t a) { return db(std::fabs(bd(a))); }

/// Comparison index: BatchTapeExecutor's real-comparison fast paths are
/// laid out in this order.
enum CmpIx { kIxLt = 0, kIxLe, kIxGt, kIxGe, kIxEq, kIxNe };

inline int cmpIndex(Op op) {
  switch (op) {
    case Op::kLt: return kIxLt;
    case Op::kLe: return kIxLe;
    case Op::kGt: return kIxGt;
    case Op::kGe: return kIxGe;
    case Op::kEq: return kIxEq;
    default: return kIxNe;  // kNe
  }
}

template <int Ix>
inline std::uint64_t rCmpOp(std::uint64_t a, std::uint64_t b) {
  const double x = bd(a), y = bd(b);
  if constexpr (Ix == kIxLt) return x < y ? 1 : 0;
  if constexpr (Ix == kIxLe) return x <= y ? 1 : 0;
  if constexpr (Ix == kIxGt) return x > y ? 1 : 0;
  if constexpr (Ix == kIxGe) return x >= y ? 1 : 0;
  if constexpr (Ix == kIxEq) return x == y ? 1 : 0;
  return x != y ? 1 : 0;
}

// ---- int64 lane ops (payload = two's complement) ------------------------

inline std::uint64_t iAddOp(std::uint64_t a, std::uint64_t b) { return a + b; }
inline std::uint64_t iSubOp(std::uint64_t a, std::uint64_t b) { return a - b; }
inline std::uint64_t iNegOp(std::uint64_t a) { return std::uint64_t{0} - a; }
inline std::uint64_t iAbsOp(std::uint64_t a) {
  return static_cast<std::int64_t>(a) < 0 ? std::uint64_t{0} - a : a;
}
inline std::uint64_t iMinOp(std::uint64_t a, std::uint64_t b) {
  // std::min: returns a when equal.
  return static_cast<std::int64_t>(b) < static_cast<std::int64_t>(a) ? b : a;
}
inline std::uint64_t iMaxOp(std::uint64_t a, std::uint64_t b) {
  // std::max: returns a when equal.
  return static_cast<std::int64_t>(b) > static_cast<std::int64_t>(a) ? b : a;
}

// ---- bool lane ops (payload = 0/1) --------------------------------------

inline std::uint64_t bAndOp(std::uint64_t a, std::uint64_t b) { return a & b; }
inline std::uint64_t bOrOp(std::uint64_t a, std::uint64_t b) { return a | b; }
inline std::uint64_t bXorOp(std::uint64_t a, std::uint64_t b) { return a ^ b; }
inline std::uint64_t bNotOp(std::uint64_t a) { return a ^ 1; }

// ---- distance-overlay ops (double rows, solver::DistanceProgram) --------

inline constexpr double kDistEps = 1e-6;  // branchDistance's atom epsilon

inline double dSumOp(double a, double b) { return a + b; }
inline double dMinOp(double a, double b) { return b < a ? b : a; }  // std::min

/// The six Korel/Tracey distance forms over x (= l - r or r - l depending
/// on the comparison), exactly as solver's overlayStep computes them.
/// The negated forms are spelled `kDistEps - x` (identical to `-x + eps`
/// for every non-NaN x, and the spelling compilers produce for either):
/// subtraction propagates a NaN x with its sign bit untouched, where an
/// explicit negate-then-add would flip it, keeping NaN distances
/// bit-identical to DistanceTape's.
template <int Form>
inline double dFormOp(double x) {
  if constexpr (Form == 0) return std::fabs(x);               // Eq want / Ne !want
  if constexpr (Form == 1) return std::fabs(x) == 0.0 ? 1.0 : 0.0;
  if constexpr (Form == 2) return x < 0.0 ? 0.0 : x + kDistEps;       // Lt/Gt want
  if constexpr (Form == 3) return x >= 0.0 ? 0.0 : kDistEps - x;      // Lt/Gt !want
  if constexpr (Form == 4) return x <= 0.0 ? 0.0 : x;                 // Le/Ge want
  return x > 0.0 ? 0.0 : kDistEps - x;                                // Le/Ge !want
}

inline double dTruthOp(std::uint64_t t, std::uint64_t want) {
  return t == want ? 0.0 : 1.0;
}

// ---- row loops (n lanes; dst may equal an operand row exactly) ----------

template <std::uint64_t (*ElemOp)(std::uint64_t, std::uint64_t)>
inline void binRow(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, int n) {
  for (int i = 0; i < n; ++i) dst[i] = ElemOp(a[i], b[i]);
}

template <std::uint64_t (*ElemOp)(std::uint64_t)>
inline void unRow(std::uint64_t* dst, const std::uint64_t* a, int n) {
  for (int i = 0; i < n; ++i) dst[i] = ElemOp(a[i]);
}

/// dst[i] = c[i] != 0 ? a[i] : b[i], raw payload select.
inline void sel64Row(std::uint64_t* dst, const std::uint64_t* c,
                     const std::uint64_t* a, const std::uint64_t* b, int n) {
  for (int i = 0; i < n; ++i) dst[i] = c[i] != 0 ? a[i] : b[i];
}

inline void dSumRow(double* dst, const double* a, const double* b, int n) {
  for (int i = 0; i < n; ++i) dst[i] = dSumOp(a[i], b[i]);
}

inline void dMinRow(double* dst, const double* a, const double* b, int n) {
  for (int i = 0; i < n; ++i) dst[i] = dMinOp(a[i], b[i]);
}

/// Distance form `Form` applied to a[i] - b[i] (or b[i] - a[i] if Swap).
template <int Form, bool Swap>
inline void dCmpRow(double* dst, const double* a, const double* b, int n) {
  for (int i = 0; i < n; ++i) {
    dst[i] = dFormOp<Form>(Swap ? b[i] - a[i] : a[i] - b[i]);
  }
}

/// The kCmp distance of `a op b` being `want`, per lane: Eq want / Ne
/// !want share Form 0, Eq !want / Ne want Form 1; Lt/Le use x = a - b,
/// Gt/Ge the swapped difference.
inline void dCmpRow(Op op, bool want, double* dst, const double* a,
                    const double* b, int n) {
  switch (op) {
    case Op::kEq:
      return want ? dCmpRow<0, false>(dst, a, b, n)
                  : dCmpRow<1, false>(dst, a, b, n);
    case Op::kLt:
      return want ? dCmpRow<2, false>(dst, a, b, n)
                  : dCmpRow<3, false>(dst, a, b, n);
    case Op::kLe:
      return want ? dCmpRow<4, false>(dst, a, b, n)
                  : dCmpRow<5, false>(dst, a, b, n);
    case Op::kGt:
      return want ? dCmpRow<2, true>(dst, a, b, n)
                  : dCmpRow<3, true>(dst, a, b, n);
    case Op::kGe:
      return want ? dCmpRow<4, true>(dst, a, b, n)
                  : dCmpRow<5, true>(dst, a, b, n);
    default:  // kNe
      return want ? dCmpRow<1, false>(dst, a, b, n)
                  : dCmpRow<0, false>(dst, a, b, n);
  }
}

inline void dTruthRow(double* dst, const std::uint64_t* truth,
                      std::uint64_t want, int n) {
  for (int i = 0; i < n; ++i) dst[i] = dTruthOp(truth[i], want);
}

}  // namespace stcg::expr::simd_detail
