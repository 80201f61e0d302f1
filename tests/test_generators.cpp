// Generator behaviour tests: STCG mechanics on crafted models, baseline
// sanity, replay fidelity, determinism, goal derivation, and text export.
#include <gtest/gtest.h>

#include "baselines/simcotest_like.h"
#include "baselines/sldv_like.h"
#include "compile/compiler.h"
#include "expr/builder.h"
#include "model/model.h"
#include "solver/local_search.h"
#include <fstream>

#include "stcg/export.h"
#include "stcg/stcg_generator.h"

namespace stcg::gen {
namespace {

using expr::Scalar;
using expr::Type;
using model::Model;

// A model whose deep branch needs a remembered secret: unlock fires only
// when `code` equals the value latched two steps ago while `arm` was set.
Model makeLatchModel() {
  Model m("Latch");
  auto code = m.addInport("code", Type::kInt, 0, 100000);
  auto arm = m.addInport("arm", Type::kBool, 0, 1);
  auto latch = m.addUnitDelayHole("latched", Scalar::i(-1));
  auto latchNext = m.addSwitch("latch_next", code, arm, latch,
                               model::SwitchCriteria::kNotZero, 0.0);
  m.bindDelayInput(latch, latchNext);
  auto match = m.addRelational("match", model::RelOp::kEq, code, latch);
  auto valid = m.addCompareToConst("valid", latch, model::RelOp::kGe, 0.0);
  auto unlock = m.addLogical("unlock", model::LogicOp::kAnd, {match, valid});
  auto one = m.addConstant("one", Scalar::i(1));
  auto zero = m.addConstant("zero", Scalar::i(0));
  m.addOutport("y", m.addSwitch("out", one, unlock, zero,
                                model::SwitchCriteria::kNotZero, 0.0));
  return m;
}

GenOptions fastOptions(std::uint64_t seed = 5) {
  GenOptions opt;
  opt.budgetMillis = 2500;
  opt.seed = seed;
  opt.solver.timeBudgetMillis = 20;
  return opt;
}

TEST(Goals, BranchConditionAndMcdcGoalsDerived) {
  const auto cm = compile::compile(makeLatchModel());
  const auto branchOnly = buildGoals(cm, false, false);
  EXPECT_EQ(branchOnly.size(), cm.branches.size());
  const auto withConds = buildGoals(cm, true, false);
  EXPECT_EQ(withConds.size(),
            cm.branches.size() + 2 * static_cast<std::size_t>(
                                         cm.conditionCount()));
  const auto withMcdc = buildGoals(cm, true, true);
  EXPECT_GT(withMcdc.size(), withConds.size());
  for (const auto& g : withMcdc) {
    EXPECT_NE(g.pathConstraint, nullptr);
    EXPECT_FALSE(g.label.empty());
  }
}

TEST(Goals, SortedTraversalRespectsDepth) {
  const auto cm = compile::compile(makeLatchModel());
  const auto goals = buildGoals(cm, true, true);
  for (const auto& g : goals) EXPECT_GE(g.depth, 0);
}

TEST(Stcg, SolvesTheLatchEquality) {
  // Random search needs a 1-in-100001 id match after arming; STCG reads
  // the latched value from the state tree and solves code == latched.
  const auto cm = compile::compile(makeLatchModel());
  StcgGenerator g;
  const auto res = g.generate(cm, fastOptions());
  EXPECT_EQ(res.coverage.decision, 1.0)
      << res.coverage.coveredBranches << "/" << res.coverage.totalBranches;
  EXPECT_GT(res.stats.solveSat, 0);
}

TEST(Stcg, DeterministicForFixedSeed) {
  const auto cm = compile::compile(makeLatchModel());
  StcgGenerator g;
  GenOptions opt = fastOptions(77);
  // Remove the wall-clock dependence: give a budget large enough that both
  // runs cover everything and stop on goal completion.
  opt.budgetMillis = 10000;
  const auto a = g.generate(cm, opt);
  const auto b = g.generate(cm, opt);
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].steps, b.tests[i].steps) << "test " << i;
  }
  EXPECT_EQ(a.coverage.decision, b.coverage.decision);
}

TEST(Stcg, ReplayedSuiteReproducesOnlineCoverage) {
  const auto cm = compile::compile(makeLatchModel());
  StcgGenerator g;
  const auto res = g.generate(cm, fastOptions());
  const auto replay = replaySuite(cm, res.tests);
  // Every branch claimed covered must be covered by replaying the suite
  // from reset — the paper's Signal-Builder-fair measurement.
  EXPECT_EQ(summarize(replay).decision, res.coverage.decision);
  EXPECT_EQ(summarize(replay).condition, res.coverage.condition);
}

TEST(Stcg, NoRandomFallbackStillSolvesShallowGoals) {
  const auto cm = compile::compile(makeLatchModel());
  GenOptions opt = fastOptions();
  opt.useRandomFallback = false;
  StcgGenerator g;
  const auto res = g.generate(cm, opt);
  EXPECT_GT(res.coverage.decision, 0.4);
  EXPECT_EQ(res.stats.randomSequences, 0);
}

TEST(Stcg, RootOnlyCannotReachStateDependentBranch) {
  const auto cm = compile::compile(makeLatchModel());
  GenOptions opt = fastOptions();
  opt.solveOnAllNodes = false;
  opt.useRandomFallback = false;  // isolate the solving dimension
  StcgGenerator g;
  const auto res = g.generate(cm, opt);
  // unlock requires latched >= 0, impossible at the initial state.
  EXPECT_LT(res.coverage.decision, 1.0);
}

TEST(Stcg, EventsCarryMonotonicCoverage) {
  const auto cm = compile::compile(makeLatchModel());
  StcgGenerator g;
  const auto res = g.generate(cm, fastOptions());
  double last = 0.0;
  for (const auto& e : res.events) {
    EXPECT_GE(e.decisionCoverage, last);
    last = e.decisionCoverage;
    EXPECT_GE(e.timeSec, 0.0);
  }
}

TEST(SldvLike, CoversViaUnrollingAndReplays) {
  const auto cm = compile::compile(makeLatchModel());
  GenOptions opt = fastOptions();
  opt.maxUnrollDepth = 3;
  opt.solver.timeBudgetMillis = 120;
  SldvLikeGenerator g;
  const auto res = g.generate(cm, opt);
  // Depth 2-3 suffices for arm-then-match; the unroller must find it.
  EXPECT_EQ(res.coverage.decision, 1.0);
  for (const auto& t : res.tests) {
    EXPECT_LE(t.steps.size(), 3u);
    EXPECT_EQ(t.origin, TestOrigin::kSolved);
  }
}

TEST(SldvLike, DepthOneOnlyGetsShallowBranches) {
  const auto cm = compile::compile(makeLatchModel());
  GenOptions opt = fastOptions();
  opt.maxUnrollDepth = 1;
  SldvLikeGenerator g;
  const auto res = g.generate(cm, opt);
  EXPECT_LT(res.coverage.decision, 1.0);
  EXPECT_GT(res.coverage.decision, 0.0);
}

TEST(SimCoTestLike, FindsShallowBranchesAndEmitsOnNewCoverage) {
  const auto cm = compile::compile(makeLatchModel());
  GenOptions opt = fastOptions();
  opt.budgetMillis = 800;
  SimCoTestLikeGenerator g;
  const auto res = g.generate(cm, opt);
  EXPECT_GT(res.coverage.decision, 0.3);
  EXPECT_FALSE(res.tests.empty());
  for (const auto& t : res.tests) {
    EXPECT_EQ(t.origin, TestOrigin::kRandom);
  }
}

TEST(Export, RenderedSuiteIsCompleteAndParseable) {
  const auto cm = compile::compile(makeLatchModel());
  StcgGenerator g;
  const auto res = g.generate(cm, fastOptions());
  const auto text = renderTestSuite(cm, res.tests);
  EXPECT_NE(text.find("# Test suite for model Latch"), std::string::npos);
  EXPECT_NE(text.find("[test 0]"), std::string::npos);
  EXPECT_NE(text.find("code="), std::string::npos);
  // One step line per step of every test.
  std::size_t stepLines = 0;
  for (std::size_t pos = 0; (pos = text.find("step", pos)) != std::string::npos;
       ++pos) {
    if (text.compare(pos, 5, "steps") != 0) ++stepLines;
  }
  std::size_t expected = 0;
  for (const auto& t : res.tests) expected += t.steps.size();
  EXPECT_EQ(stepLines, expected);
}

TEST(Export, WriteToFileRoundTrips) {
  const auto cm = compile::compile(makeLatchModel());
  StcgGenerator g;
  GenOptions opt = fastOptions();
  opt.budgetMillis = 300;
  const auto res = g.generate(cm, opt);
  const std::string path = "/tmp/stcg_export_test.txt";
  ASSERT_TRUE(writeTestSuite(path, cm, res.tests));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string first;
  std::getline(f, first);
  EXPECT_EQ(first, "# Test suite for model Latch");
}

TEST(Replay, EmptySuiteCoversNothing) {
  const auto cm = compile::compile(makeLatchModel());
  const auto cov = replaySuite(cm, {});
  EXPECT_EQ(cov.coveredBranchCount(), 0);
}


// ----- Option validation at the library boundary ---------------------------

TEST(OptionValidation, OutOfRangeJobsAndBatchRejectedWithTypedError) {
  const auto cm = compile::compile(makeLatchModel());
  StcgGenerator g;

  GenOptions bad;
  bad.jobs = -1;
  EXPECT_THROW((void)g.generate(cm, bad), expr::EvalError);
  bad = {};
  bad.jobs = 5000;
  EXPECT_THROW((void)g.generate(cm, bad), expr::EvalError);
  bad = {};
  bad.batch = -1;
  EXPECT_THROW((void)g.generate(cm, bad), expr::EvalError);
  bad = {};
  bad.solver.batch = 100000;
  EXPECT_THROW((void)g.generate(cm, bad), expr::EvalError);

  solver::SolveOptions so;
  so.batch = -3;
  solver::LocalSearchSolver ls(so);
  const expr::VarInfo x{1, "x", Type::kReal, -1, 1};
  EXPECT_THROW(
      (void)ls.solve(expr::gtE(expr::mkVar(x), expr::cReal(0.0)), {x}),
      expr::EvalError);
}

}  // namespace
}  // namespace stcg::gen
