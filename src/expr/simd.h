// Lane-loop implementation name of the batch engines.
//
// expr::BatchTapeExecutor and solver::BatchDistanceTape run one set of
// portable row loops (expr/simd_ops.h), vectorized where the compiler
// can, so there is a single level and nothing to select. The end-to-end
// benchmark's --info and the bench JSON meta blocks read these two names.
#pragma once

namespace stcg::expr {

enum class SimdLevel { kScalar };

[[nodiscard]] constexpr const char* simdLevelName(SimdLevel /*lvl*/) {
  return "scalar";
}

[[nodiscard]] constexpr SimdLevel activeSimdLevel() {
  return SimdLevel::kScalar;
}

}  // namespace stcg::expr
