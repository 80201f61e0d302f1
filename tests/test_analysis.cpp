// Tests for the interval reachability analysis and dead-branch
// pre-verification (the paper's Discussion-section suggestion).
#include <gtest/gtest.h>

#include "analysis/reachability.h"
#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "expr/builder.h"
#include "interval/forward.h"
#include "model/model.h"
#include "sim/simulator.h"
#include "stcg/stcg_generator.h"

namespace stcg::analysis {
namespace {

using expr::Scalar;
using expr::Type;
using model::Model;

TEST(IntervalEvalTest, ScalarOpsUnderEnv) {
  interval::IntervalEnv env;
  env.set(0, interval::Interval(2, 4));
  interval::ForwardEvaluator eval(env);
  const auto x = expr::mkVar({0, "x", Type::kInt, -100, 100});
  EXPECT_EQ(eval.evalScalar(expr::addE(x, expr::cInt(1))),
            interval::Interval(3, 5));
  EXPECT_TRUE(
      eval.evalScalar(expr::gtE(x, expr::cInt(10))).isFalse());
  EXPECT_TRUE(eval.evalScalar(expr::geE(x, expr::cInt(2))).isTrue());
}

TEST(IntervalEvalTest, UnboundInputUsesDeclaredDomain) {
  interval::IntervalEnv env;
  interval::ForwardEvaluator eval(env);
  const auto x = expr::mkVar({0, "x", Type::kInt, 3, 9});
  EXPECT_EQ(eval.evalScalar(x), interval::Interval(3, 9));
}

TEST(IntervalEvalTest, ArrayStateBindsElementwise) {
  interval::IntervalEnv env;
  env.setArray(0, {interval::Interval(0, 1), interval::Interval(5, 5)});
  interval::ForwardEvaluator eval(env);
  const auto arr = expr::mkVarArray(0, "a", Type::kInt, 2);
  const auto i = expr::mkVar({1, "i", Type::kInt, 0, 1});
  const auto sel = expr::selectE(arr, i);
  EXPECT_EQ(eval.evalScalar(sel), interval::Interval(0, 5));
}

TEST(Invariant, SaturatedCounterStaysBounded) {
  Model m("t");
  auto inc = m.addInport("inc", Type::kBool, 0, 1);
  auto count = m.addUnitDelayHole("count", Scalar::i(0));
  auto one = m.addConstant("one", Scalar::i(1));
  auto zero = m.addConstant("zero", Scalar::i(0));
  auto amount = m.addSwitch("amount", one, inc, zero,
                            model::SwitchCriteria::kNotZero, 0.0);
  auto next = m.addSum("next", {count, amount}, "++");
  m.bindDelayInput(count, m.addSaturation("sat", next, 0, 10));
  m.addOutport("y", count);
  const auto cm = compile::compile(m);

  const auto inv = computeStateInvariant(cm);
  EXPECT_TRUE(inv.converged);
  const auto dom = inv.env.get(cm.states[0].id);
  EXPECT_EQ(dom, interval::Interval(0, 10));
}

TEST(Invariant, ChartActiveStateBoundedByStateCount) {
  const auto cm = compile::compile(bench::buildAfc());
  const auto inv = computeStateInvariant(cm);
  for (const auto& sv : cm.states) {
    if (sv.name.find(".active") == std::string::npos) continue;
    const auto dom = inv.env.get(sv.id);
    EXPECT_GE(dom.lo(), 0.0);
    EXPECT_LE(dom.hi(), 4.0);  // the AFC chart has 5 states
  }
}

TEST(DeadBranches, LedlcDefaultArmIsProvenDead) {
  const auto cm = compile::compile(bench::buildLedlc());
  const auto report = findDeadBranches(cm);
  bool foundDefault = false;
  for (const int b : report.deadBranches) {
    const auto& br = cm.branches[static_cast<std::size_t>(b)];
    const auto& d = cm.decisions[static_cast<std::size_t>(br.decision)];
    if (d.name.find("duty_by_mode") != std::string::npos &&
        br.label.find("default") != std::string::npos) {
      foundDefault = true;
    }
  }
  EXPECT_TRUE(foundDefault)
      << "the unreachable Switch-Case default arm must be proven dead";
}

TEST(DeadBranches, UnreachableThresholdIsProvenDead) {
  // A saturated counter in [0,10] can never exceed 50.
  Model m("t");
  auto inc = m.addInport("inc", Type::kBool, 0, 1);
  auto count = m.addUnitDelayHole("count", Scalar::i(0));
  auto one = m.addConstant("one", Scalar::i(1));
  auto zero = m.addConstant("zero", Scalar::i(0));
  auto amount = m.addSwitch("amount", one, inc, zero,
                            model::SwitchCriteria::kNotZero, 0.0);
  auto next = m.addSum("next", {count, amount}, "++");
  m.bindDelayInput(count, m.addSaturation("sat", next, 0, 10));
  auto never = m.addCompareToConst("never", count, model::RelOp::kGt, 50.0);
  m.addOutport("y", m.addSwitch("dead", one, never, zero,
                                model::SwitchCriteria::kNotZero, 0.0));
  const auto cm = compile::compile(m);
  const auto report = findDeadBranches(cm);
  bool deadTrueArm = false;
  for (const int b : report.deadBranches) {
    const auto& br = cm.branches[static_cast<std::size_t>(b)];
    const auto& d = cm.decisions[static_cast<std::size_t>(br.decision)];
    if (d.name.find("dead") != std::string::npos && br.label == "true") {
      deadTrueArm = true;
    }
  }
  EXPECT_TRUE(deadTrueArm);
}

// Soundness sweep: no branch that random execution actually covers may
// ever be flagged dead.
class DeadBranchSoundness : public ::testing::TestWithParam<std::string> {};

TEST_P(DeadBranchSoundness, NeverFlagsACoveredBranch) {
  const auto cm = compile::compile(bench::buildBenchModel(GetParam()));
  const auto report = findDeadBranches(cm);
  coverage::CoverageTracker cov(cm);
  sim::Simulator sim(cm);
  Rng rng(4242);
  for (int i = 0; i < 400; ++i) {
    (void)sim.step(sim::randomInput(cm, rng), &cov);
  }
  for (const int b : report.deadBranches) {
    EXPECT_FALSE(cov.branchCovered(b))
        << GetParam() << ": branch " << b << " ("
        << cm.decisions[static_cast<std::size_t>(
                            cm.branches[static_cast<std::size_t>(b)].decision)]
               .name
        << ") was executed but proven dead";
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, DeadBranchSoundness,
                         ::testing::Values("CPUTask", "AFC", "TWC",
                                           "NICProtocol", "UTPC", "LANSwitch",
                                           "LEDLC", "TCP"),
                         [](const auto& info) { return info.param; });

TEST(StcgPruning, PruningSavesSolveCallsWithoutLosingCoverage) {
  const auto cm = compile::compile(bench::buildLedlc());
  gen::GenOptions opt;
  // A round cap, not the wall clock, ends both runs, so the comparison
  // is deterministic on a loaded or sanitized build. The budget is set
  // far above what 500 rounds take so that it never binds.
  opt.maxRounds = 500;
  opt.budgetMillis = 600000;
  opt.seed = 5;
  gen::StcgGenerator g;
  const auto plain = g.generate(cm, opt);
  opt.pruneProvablyDead = true;
  const auto pruned = g.generate(cm, opt);
  EXPECT_GT(pruned.stats.goalsPruned, 0);
  // Dead goals are never handed to the solver.
  EXPECT_LT(pruned.stats.solveCalls, plain.stats.solveCalls);
  // Same (or better) coverage with pruning: dead goals contributed nothing.
  EXPECT_GE(pruned.coverage.decision + 1e-9, plain.coverage.decision);
}

TEST(Invariant, RenderIsHumanReadable) {
  const auto cm = compile::compile(bench::buildAfc());
  const auto inv = computeStateInvariant(cm);
  const auto text = renderInvariant(cm, inv);
  EXPECT_NE(text.find("State invariant"), std::string::npos);
  EXPECT_NE(text.find("AFC/"), std::string::npos);
}

}  // namespace
}  // namespace stcg::analysis
