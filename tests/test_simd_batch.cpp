// Batch lane-loop parity and early-exit-mask tests (DESIGN.md §5i).
//
//   - the util::envFlag grammar (on a scratch variable name),
//   - lane parity: random-DAG differential fuzz plus targeted special
//     values (NaN, ±inf, ±0, fmin/fmax equal operands, int wrap
//     extremes, division by zero) pinned bitwise between the batch
//     executor's row loops and a scalar TapeExecutor per lane,
//   - the Korel/Tracey kCmp distance forms (all six comparisons, both
//     wants, plus kTruth) bitwise against DistanceTape::rebind,
//   - early-exit masks: runBounded() vs run() equivalence for callers
//     that consume distances through `d < bound`, masked lanes pinned
//     to +inf, the climber's accept order provably unchanged, and the
//     retired/skipped overlay accounting closed,
//   - sub-box dead-branch proofs validated against random simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "analysis/reachability.h"
#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "coverage/coverage.h"
#include "expr/batch_tape.h"
#include "expr/builder.h"
#include "expr/tape.h"
#include "sim/simulator.h"
#include "solver/distance_tape.h"
#include "util/env.h"
#include "util/rng.h"

#include "fuzz_dag.h"

namespace stcg {
namespace {

using fuzz::FuzzDag;
using fuzz::makeFuzzDag;
using fuzz::randomEnv;
using fuzz::randomScalarFor;
using fuzz::sameBits;
using fuzz::sameScalar;

using expr::Env;
using expr::ExprPtr;
using expr::Scalar;
using expr::SlotRef;
using expr::Type;
using expr::VarInfo;

constexpr int kLanes = 8;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kQnan = std::numeric_limits<double>::quiet_NaN();

// ----- The env-flag grammar (on a scratch variable) ------------------------

TEST(EnvFlag, FlagGrammarKeepsDefaultsOnGarbage) {
  const char* var = "STCG_TEST_ENV_FLAG";
  ::unsetenv(var);
  EXPECT_TRUE(util::envFlag(var, true));
  EXPECT_FALSE(util::envFlag(var, false));
  ::setenv(var, "", 1);
  EXPECT_TRUE(util::envFlag(var, true)) << "empty keeps the default";
  for (const char* on : {"1", "true", "ON", "yes"}) {
    ::setenv(var, on, 1);
    EXPECT_TRUE(util::envFlag(var, false)) << on;
  }
  for (const char* off : {"0", "FALSE", "off", "No"}) {
    ::setenv(var, off, 1);
    EXPECT_FALSE(util::envFlag(var, true)) << off;
  }
  const std::size_t before = util::envDiagnosticCount();
  ::setenv(var, "definitely-not-boolean", 1);
  EXPECT_TRUE(util::envFlag(var, true)) << "garbage keeps the default";
  EXPECT_EQ(util::envDiagnosticCount(), before + 1)
      << "unrecognized value -> one diagnostic";
  EXPECT_FALSE(util::envFlag(var, false)) << "garbage keeps the default";
  EXPECT_EQ(util::envDiagnosticCount(), before + 1)
      << "repeated parse of the same (variable, value) stays silent";
  ::unsetenv(var);
}

// ----- Lane parity: random-DAG differential fuzz ---------------------------

TEST(SimdParityFuzz, RandomDagLanesBitIdentical) {
  Rng rng(52801);
  for (int trial = 0; trial < 12; ++trial) {
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/true);
    expr::TapeBuilder b;
    std::vector<ExprPtr> roots;
    std::vector<SlotRef> slots;
    const auto addRootFrom = [&](const std::vector<ExprPtr>& pool) {
      const auto& e = pool[rng.index(pool.size())];
      roots.push_back(e);
      slots.push_back(b.addRoot(e));
    };
    for (int i = 0; i < 3; ++i) addRootFrom(d.bools);
    for (int i = 0; i < 2; ++i) {
      addRootFrom(d.ints);
      addRootFrom(d.reals);
    }
    addRootFrom(d.realArrays);
    addRootFrom(d.intArrays);
    const auto tape = b.finish();

    expr::BatchTapeExecutor bx(tape, kLanes);
    // A scalar TapeExecutor per lane as the loop-free oracle.
    std::vector<std::unique_ptr<expr::TapeExecutor>> refs;
    for (int l = 0; l < kLanes; ++l) {
      const Env env = randomEnv(rng, d);
      refs.push_back(std::make_unique<expr::TapeExecutor>(tape));
      refs.back()->bindEnv(env);
      bx.bindEnv(l, env);
    }
    const auto runAndCheck = [&](const char* what) {
      bx.run();
      for (int l = 0; l < kLanes; ++l) {
        auto& ref = *refs[static_cast<std::size_t>(l)];
        ref.run();
        for (std::size_t i = 0; i < roots.size(); ++i) {
          if (roots[i]->isArray()) {
            const auto& a = ref.array(slots[i]);
            const auto& ba = bx.array(slots[i], l);
            ASSERT_EQ(a.size(), ba.size());
            for (std::size_t j = 0; j < a.size(); ++j) {
              EXPECT_TRUE(sameScalar(a[j], ba[j]))
                  << what << " trial " << trial << " lane " << l << " root "
                  << i << " [" << j << "]";
            }
          } else {
            EXPECT_TRUE(
                sameScalar(ref.scalar(slots[i]), bx.scalar(slots[i], l)))
                << what << " trial " << trial << " lane " << l << " root " << i;
          }
        }
      }
    };
    runAndCheck("initial");
    for (int round = 0; round < 2; ++round) {
      for (int l = 0; l < kLanes; ++l) {
        for (int m = 0; m < 2; ++m) {
          const auto& v = d.vars[rng.index(d.vars.size())];
          const Scalar nv = randomScalarFor(rng, v);
          refs[static_cast<std::size_t>(l)]->setVar(v.id, nv);
          bx.setVar(l, v.id, nv);
        }
      }
      runAndCheck("rebound");
    }
  }
}

// ----- Lane parity: payload-row array paths --------------------------------

// Mixed-element-type arrays, forced-dynamic selects, out-of-range index
// clamps, and arrMove_ swap interleavings, lane-for-lane against the
// scalar TapeExecutor. Rounds alternate per-lane binds (column writes
// into the tag planes) with broadcast binds (row fan-out), so
// uniform<->mixed plane transitions and setArrayVarBroadcast parity are
// both covered.
TEST(SimdArrayParityFuzz, MixedTypeArraysBitIdentical) {
  Rng rng(90217);
  for (int trial = 0; trial < 12; ++trial) {
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/true);
    expr::TapeBuilder b;
    std::vector<ExprPtr> roots;
    std::vector<SlotRef> slots;
    const auto addRootFrom = [&](const std::vector<ExprPtr>& pool) {
      const auto& e = pool[rng.index(pool.size())];
      roots.push_back(e);
      slots.push_back(b.addRoot(e));
    };
    // Array-heavy roots: rooted array slots are never swap-eligible while
    // the unrooted intermediates between them are, so kStore/array-kIte
    // chains interleave planeCopy and plane swap on the same run.
    for (int i = 0; i < 2; ++i) {
      addRootFrom(d.realArrays);
      addRootFrom(d.intArrays);
    }
    for (int i = 0; i < 2; ++i) {
      addRootFrom(d.ints);
      addRootFrom(d.reals);
    }
    addRootFrom(d.bools);
    const auto tape = b.finish();

    expr::BatchTapeExecutor bx(tape, kLanes);
    std::vector<std::unique_ptr<expr::TapeExecutor>> refs;
    for (int l = 0; l < kLanes; ++l) {
      const Env env = fuzz::randomEnvMixedArrays(rng, d);
      refs.push_back(std::make_unique<expr::TapeExecutor>(tape));
      refs.back()->bindEnv(env);
      bx.bindEnv(l, env);
    }
    const auto runAndCheck = [&](const char* what) {
      bx.run();
      for (int l = 0; l < kLanes; ++l) {
        auto& ref = *refs[static_cast<std::size_t>(l)];
        ref.run();
        for (std::size_t i = 0; i < roots.size(); ++i) {
          if (roots[i]->isArray()) {
            const auto& a = ref.array(slots[i]);
            const auto& ba = bx.array(slots[i], l);
            ASSERT_EQ(a.size(), ba.size());
            ASSERT_EQ(a.size(), bx.arrayLen(slots[i], l));
            for (std::size_t j = 0; j < a.size(); ++j) {
              EXPECT_TRUE(sameScalar(a[j], ba[j]))
                  << what << " trial " << trial << " lane " << l << " root "
                  << i << " [" << j << "] (array)";
              EXPECT_TRUE(sameScalar(a[j], bx.arrayElem(slots[i], l, j)))
                  << what << " trial " << trial << " lane " << l << " root "
                  << i << " [" << j << "] (arrayElem)";
            }
          } else {
            EXPECT_TRUE(
                sameScalar(ref.scalar(slots[i]), bx.scalar(slots[i], l)))
                << what << " trial " << trial << " lane " << l << " root " << i;
          }
        }
      }
    };
    runAndCheck("initial");
    for (int round = 0; round < 3; ++round) {
      if (round == 1) {
        // Broadcast round: one mixed vector fanned out to every lane must
        // equal B per-lane binds of the same vector.
        const auto ar = fuzz::randomMixedArray(rng, 4);
        const auto ai = fuzz::randomMixedArray(rng, 3);
        bx.setArrayVarBroadcast(fuzz::kRealArrId, ar);
        bx.setArrayVarBroadcast(fuzz::kIntArrId, ai);
        for (int l = 0; l < kLanes; ++l) {
          refs[static_cast<std::size_t>(l)]->setArrayVar(fuzz::kRealArrId, ar);
          refs[static_cast<std::size_t>(l)]->setArrayVar(fuzz::kIntArrId, ai);
        }
      } else {
        for (int l = 0; l < kLanes; ++l) {
          auto& ref = *refs[static_cast<std::size_t>(l)];
          const auto ar = fuzz::randomMixedArray(rng, 4);
          const auto ai = fuzz::randomMixedArray(rng, 3);
          ref.setArrayVar(fuzz::kRealArrId, ar);
          ref.setArrayVar(fuzz::kIntArrId, ai);
          bx.setArrayVar(l, fuzz::kRealArrId, ar);
          bx.setArrayVar(l, fuzz::kIntArrId, ai);
          const auto& v = d.vars[rng.index(d.vars.size())];
          const Scalar nv = randomScalarFor(rng, v);
          ref.setVar(v.id, nv);
          bx.setVar(l, v.id, nv);
        }
      }
      runAndCheck(round == 1 ? "broadcast" : "rebound");
    }
  }
}

// Saturation edges of the index clamp: INT64_MIN/MAX, -1, 0, n-1, n as
// literal indices through kSelect and kStore, plus a real index whose
// toInt saturates, against the scalar executor.
TEST(SimdArrayParity, ExtremeIndexClampEdges) {
  const std::vector<std::int64_t> idxs = {
      std::numeric_limits<std::int64_t>::min(), -1, 0, 2, 3, 4,
      std::numeric_limits<std::int64_t>::max()};
  const VarInfo iv{0, "i", Type::kInt, -10, 10};
  const auto arr = expr::cArray(
      Type::kReal, {Scalar::r(1.5), Scalar::r(-2.5), Scalar::r(4.0),
                    Scalar::r(-8.0)});
  expr::TapeBuilder b;
  std::vector<SlotRef> slots;
  for (const std::int64_t i : idxs) {
    slots.push_back(b.addRoot(expr::selectE(arr, expr::cInt(i))));
    slots.push_back(b.addRoot(expr::selectE(
        expr::storeE(arr, expr::cInt(i), expr::cReal(99.0)), expr::cInt(0))));
  }
  // Saturating real->int index conversions (±inf, NaN -> 0, huge finite).
  for (const double r : {1e300, -1e300, kInf, -kInf, kQnan}) {
    slots.push_back(b.addRoot(
        expr::selectE(arr, expr::castE(expr::cReal(r), Type::kInt))));
  }
  // A variable index so the slot isn't constant-folded away.
  slots.push_back(b.addRoot(expr::selectE(arr, expr::mkVar(iv))));
  const auto tape = b.finish();

  expr::TapeExecutor ref(tape);
  ref.setVar(iv.id, Scalar::i(7));
  ref.run();
  expr::BatchTapeExecutor bx(tape, kLanes);
  for (int l = 0; l < kLanes; ++l) bx.setVar(l, iv.id, Scalar::i(7));
  bx.run();
  for (const SlotRef& s : slots) {
    for (int l = 0; l < kLanes; ++l) {
      EXPECT_TRUE(sameScalar(ref.scalar(s), bx.scalar(s, l)))
          << "slot " << s.slot << " lane " << l;
    }
  }
}

// ----- Lane parity: targeted special values --------------------------------

TEST(SimdParity, SpecialValuesBitIdentical) {
  const VarInfo r0{0, "r0", Type::kReal, -100, 100};
  const VarInfo r1{1, "r1", Type::kReal, -100, 100};
  const VarInfo i0{2, "i0", Type::kInt, -100, 100};
  const VarInfo i1{3, "i1", Type::kInt, -100, 100};
  const VarInfo b0{4, "b0", Type::kBool, 0, 1};
  const VarInfo b1{5, "b1", Type::kBool, 0, 1};
  const auto R0 = expr::mkVar(r0), R1 = expr::mkVar(r1);
  const auto I0 = expr::mkVar(i0), I1 = expr::mkVar(i1);
  const auto B0 = expr::mkVar(b0), B1 = expr::mkVar(b1);

  expr::TapeBuilder b;
  std::vector<SlotRef> slots;
  const auto root = [&](ExprPtr e) { slots.push_back(b.addRoot(std::move(e))); };
  // Real row loops: arithmetic, guarded division, fmin/fmax, neg/abs, the
  // six comparisons.
  root(expr::addE(R0, R1));
  root(expr::subE(R0, R1));
  root(expr::mulE(R0, R1));
  root(expr::divE(R0, R1));
  root(expr::minE(R0, R1));
  root(expr::maxE(R0, R1));
  root(expr::negE(R0));
  root(expr::absE(R0));
  root(expr::ltE(R0, R1));
  root(expr::leE(R0, R1));
  root(expr::gtE(R0, R1));
  root(expr::geE(R0, R1));
  root(expr::eqE(R0, R1));
  root(expr::neE(R0, R1));
  // Int row loops (wrap semantics) and the guarded int division.
  root(expr::addE(I0, I1));
  root(expr::subE(I0, I1));
  root(expr::minE(I0, I1));
  root(expr::maxE(I0, I1));
  root(expr::negE(I0));
  root(expr::absE(I0));
  root(expr::divE(I0, I1));
  root(expr::modE(I0, I1));
  // Bool row loops and the raw-payload select.
  root(expr::andE(B0, B1));
  root(expr::orE(B0, B1));
  root(expr::xorE(B0, B1));
  root(expr::notE(B0));
  root(expr::iteE(B0, R0, R1));
  root(expr::iteE(B1, I0, I1));
  const auto tape = b.finish();

  // One special pair per lane: NaN on either side and both, ±0 in both
  // orders (fmin/fmax equal-operand: glibc returns the FIRST operand),
  // opposite infinities (their sum is NaN), equal infinities, and an
  // ordinary equal pair. Int lanes mix signs and hit the guarded zero
  // divisors at the same time (the engine's int domain excludes the
  // overflow extremes — the fuzz harness clamps for the same reason).
  struct LaneEnv {
    double r0v, r1v;
    std::int64_t i0v, i1v;
    bool b0v, b1v;
  };
  const std::vector<LaneEnv> laneEnvs = {
      {kQnan, 1.0, 83, 7, true, false},
      {1.0, kQnan, -100, -1, false, true},
      {kQnan, kQnan, -100, -100, true, true},
      {+0.0, -0.0, 7, 0, false, false},
      {-0.0, +0.0, -7, 0, true, false},
      {kInf, -kInf, 100, 100, false, true},
      {kInf, kInf, -100, 1, true, true},
      {3.5, 3.5, 0, 0, false, false},
  };
  const int B = static_cast<int>(laneEnvs.size());

  expr::BatchTapeExecutor bx(tape, B);
  std::vector<std::unique_ptr<expr::TapeExecutor>> refs;
  for (int l = 0; l < B; ++l) {
    const LaneEnv& le = laneEnvs[static_cast<std::size_t>(l)];
    Env env;
    env.set(r0.id, Scalar::r(le.r0v));
    env.set(r1.id, Scalar::r(le.r1v));
    env.set(i0.id, Scalar::i(le.i0v));
    env.set(i1.id, Scalar::i(le.i1v));
    env.set(b0.id, Scalar::b(le.b0v));
    env.set(b1.id, Scalar::b(le.b1v));
    refs.push_back(std::make_unique<expr::TapeExecutor>(tape));
    refs.back()->bindEnv(env);
    bx.bindEnv(l, env);
  }
  bx.run();
  for (int l = 0; l < B; ++l) {
    auto& ref = *refs[static_cast<std::size_t>(l)];
    ref.run();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_TRUE(sameScalar(ref.scalar(slots[i]), bx.scalar(slots[i], l)))
          << "lane " << l << " root " << i;
    }
  }
  // Spot-check the operand-order contract of the row loops: with
  // r0 = +0.0, r1 = -0.0 (lane 3), runtime glibc fmin/fmax return the
  // FIRST operand when the arguments compare equal (simd_ops.h).
  EXPECT_TRUE(sameBits(bx.scalar(slots[4], 3).toReal(), +0.0));
  EXPECT_TRUE(sameBits(bx.scalar(slots[5], 3).toReal(), +0.0));
}

// ----- Lane parity: Korel/Tracey kCmp distance forms -----------------------

TEST(SimdParity, DistanceKCmpFormsBitIdentical) {
  const VarInfo x{0, "x", Type::kReal, -1000, 1000};
  const VarInfo y{1, "y", Type::kReal, -1000, 1000};
  const std::vector<VarInfo> vars = {x, y};
  const auto X = expr::mkVar(x), Y = expr::mkVar(y);

  std::vector<ExprPtr> goals;
  for (const auto& mk : {expr::ltE, expr::leE, expr::gtE, expr::geE,
                         expr::eqE, expr::neE}) {
    goals.push_back(mk(X, Y));             // dCmpRow(op, want=true)
    goals.push_back(expr::notE(mk(X, Y))); // dCmpRow(op, want=false)
  }
  // A composite goal (kSum + kMin over the forms) and a bare truth goal.
  goals.push_back(expr::orE(expr::andE(expr::ltE(X, Y), expr::geE(X, Y)),
                            expr::eqE(X, Y)));

  // Special pairs first, then deterministic random points.
  std::vector<std::vector<double>> points = {
      {kQnan, 1.0}, {1.0, kQnan}, {kInf, -kInf}, {-0.0, +0.0},
      {3.5, 3.5},   {-2.0, 7.0},
  };
  Rng rng(9917);
  while (points.size() < 4 * kLanes) {
    points.push_back({rng.uniformReal(-1000, 1000),
                      rng.uniformReal(-1000, 1000)});
  }

  for (std::size_t g = 0; g < goals.size(); ++g) {
    solver::DistanceTape oracle(goals[g], vars);
    solver::BatchDistanceTape bd(goals[g], vars, kLanes);
    for (std::size_t base = 0; base + kLanes <= points.size();
         base += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        bd.setPoint(l, points[base + static_cast<std::size_t>(l)]);
      }
      bd.run();
      for (int l = 0; l < kLanes; ++l) {
        const double ref =
            oracle.rebind(points[base + static_cast<std::size_t>(l)]);
        EXPECT_TRUE(sameBits(ref, bd.distance(l)))
            << "goal " << g << " point " << base + l;
      }
    }
  }
}

// ----- Early-exit masks: runBounded vs run ---------------------------------

// Random conjunction/disjunction goals over the fuzz variables: random
// and/or mixing inside for kMin coverage, but always a top-level andE —
// a kMin root has no monotone lower-bound slot before the final
// instruction, so an or-rooted goal can never skip anything and the
// skip-rate assertions below would be vacuous.
ExprPtr mixedGoal(Rng& rng, const FuzzDag& d) {
  ExprPtr g = d.bools[rng.index(d.bools.size())];
  for (int i = 0; i < 2; ++i) {
    const auto& b = d.bools[rng.index(d.bools.size())];
    g = rng.chance(0.6) ? expr::andE(std::move(g), b)
                        : expr::orE(std::move(g), b);
  }
  // Conjoin two fresh variable comparisons (never constant-foldable, so
  // the top-level kSum survives even when g collapses to a constant).
  ExprPtr c1 = expr::leE(expr::mkVar(d.vars[5]), expr::mkVar(d.vars[6]));
  ExprPtr c2 = expr::geE(expr::mkVar(d.vars[2]), expr::mkVar(d.vars[3]));
  return expr::andE(std::move(c1), expr::andE(std::move(g), std::move(c2)));
}

std::vector<double> randomPoint(Rng& rng, const std::vector<VarInfo>& vars) {
  std::vector<double> p(vars.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    const auto& v = vars[i];
    p[i] = v.type == Type::kReal
               ? rng.uniformReal(v.lo, v.hi)
               : static_cast<double>(
                     rng.uniformInt(static_cast<std::int64_t>(v.lo),
                                    static_cast<std::int64_t>(v.hi)));
  }
  return p;
}

TEST(EarlyExitMask, BoundedDistancesEquivalentForBoundConsumers) {
  Rng rng(77031);
  for (int trial = 0; trial < 10; ++trial) {
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/false);
    const ExprPtr goal = mixedGoal(rng, d);
    solver::BatchDistanceTape full(goal, d.vars, kLanes);
    solver::BatchDistanceTape mask(goal, d.vars, kLanes);
    solver::DistanceTape probe(goal, d.vars);  // overlay size for accounting

    std::uint64_t boundedRuns = 0;
    for (int round = 0; round < 6; ++round) {
      std::vector<std::vector<double>> pts;
      for (int l = 0; l < kLanes; ++l) {
        pts.push_back(randomPoint(rng, d.vars));
        full.setPoint(l, pts.back());
        mask.setPoint(l, pts.back());
      }
      full.run();
      // Bounds from loose to degenerate: +inf masks nothing, the lane
      // distances themselves make some lanes borderline, 0 masks all.
      std::vector<double> bounds = {kInf, 0.0};
      for (int l = 0; l < kLanes; l += 3) bounds.push_back(full.distance(l));
      for (const double bound : bounds) {
        mask.runBounded(bound);
        ++boundedRuns;
        for (int l = 0; l < kLanes; ++l) {
          const double df = full.distance(l);
          const double db = mask.distance(l);
          // The contract consumers rely on: the accept test is identical.
          EXPECT_EQ(db < bound, df < bound)
              << "trial " << trial << " round " << round << " lane " << l
              << " bound " << bound;
          if (df < bound) {
            EXPECT_TRUE(sameBits(df, db))
                << "surviving lanes must carry the exact distance";
          } else if (!sameBits(df, db)) {
            EXPECT_EQ(db, kInf)
                << "masked lanes must report +inf, nothing else";
          }
        }
      }
    }
    // The retired/skipped accounting closes: every (instruction, lane)
    // pair of every run is counted exactly once, on one side or the other.
    const auto& st = mask.overlayStats();
    EXPECT_EQ(st.boundedRuns, boundedRuns);
    EXPECT_EQ(st.fullRuns, 0u);
    EXPECT_EQ(st.laneInstrsRetired + st.laneInstrsSkipped,
              static_cast<std::uint64_t>(probe.overlayInstrCount()) * kLanes *
                  boundedRuns)
        << "trial " << trial;
    EXPECT_GT(st.laneInstrsSkipped, 0u)
        << "the bound=0 rounds must mask every lane";
  }
}

TEST(EarlyExitMask, ClimberAcceptOrderAndFinalBestUnchanged) {
  Rng rng(90121);
  for (int trial = 0; trial < 8; ++trial) {
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/false);
    const ExprPtr goal = mixedGoal(rng, d);
    // The same deterministic candidate stream scanned twice: once with
    // full evaluation, once through the bounded path exactly as the
    // climber uses it (bound = incumbent at chunk start, sequential
    // accept commit inside the chunk).
    std::vector<std::vector<double>> pts;
    for (int i = 0; i < 48 * kLanes; ++i) pts.push_back(randomPoint(rng, d.vars));

    solver::BatchDistanceTape full(goal, d.vars, kLanes);
    solver::BatchDistanceTape mask(goal, d.vars, kLanes);
    double bestFull = kInf, bestMask = kInf;
    std::vector<std::size_t> accFull, accMask;
    for (std::size_t base = 0; base + kLanes <= pts.size(); base += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        full.setPoint(l, pts[base + static_cast<std::size_t>(l)]);
        mask.setPoint(l, pts[base + static_cast<std::size_t>(l)]);
      }
      full.run();
      mask.runBounded(bestMask);
      for (int l = 0; l < kLanes; ++l) {
        if (full.distance(l) < bestFull) {
          bestFull = full.distance(l);
          accFull.push_back(base + static_cast<std::size_t>(l));
        }
        if (mask.distance(l) < bestMask) {
          bestMask = mask.distance(l);
          accMask.push_back(base + static_cast<std::size_t>(l));
        }
      }
    }
    EXPECT_EQ(accFull, accMask)
        << "trial " << trial << ": masking must never change accept order";
    EXPECT_TRUE(sameBits(bestFull, bestMask)) << "trial " << trial;
  }
}

// ----- Sub-box dead-branch proofs -----------------------------------------

TEST(SubBoxRefutation, DeadBranchProofsHoldUnderRandomSimulation) {
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(info.build());
    analysis::ReachabilityOptions opt;
    const auto report = analysis::findDeadBranches(cm, opt);
    if (report.deadBranches.empty()) continue;

    coverage::CoverageTracker cov(cm);
    sim::Simulator s(cm);
    Rng rng(5209);
    for (int step = 0; step < 1200; ++step) {
      (void)s.step(sim::randomInput(cm, rng), &cov);
    }
    for (const int b : report.deadBranches) {
      EXPECT_FALSE(cov.branchCovered(b))
          << info.name << ": branch " << b
          << " was proven dead but fired under random simulation";
    }
  }
}

}  // namespace
}  // namespace stcg
