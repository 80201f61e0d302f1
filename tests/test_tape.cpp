// Tape-engine tests: the bit-identity contract between the compiled
// instruction tape and the tree walkers it replaces.
//
//   - differential fuzz over random expression DAGs (every Op kind):
//     concrete tape vs tree Evaluator, interval tape vs the interval tree
//     walker (interval::ForwardEvaluator),
//     incremental dirty-cone updates vs full re-evaluation,
//   - DistanceTape vs branchDistance (bitwise costs, including the
//     incremental update path the hill climber uses),
//   - tape-vs-tree Simulator runs across all eight bench models
//     (outputs, snapshots, coverage events),
//   - batched interval verdicts vs per-constraint tree walks under the
//     computed state invariant,
//   - LocalSearchSolver and StcgGenerator producing identical results on
//     either engine,
//   - guarded x/0 and x%0 by a constant zero: scalar and batch executors
//     vs the tree Evaluator,
//   - the satellite regressions: pinned-root dedup in both evaluators and
//     Env::reserve semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/interval_tape.h"
#include "analysis/reachability.h"
#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "coverage/coverage.h"
#include "expr/batch_tape.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "expr/tape.h"
#include "expr/tape_verify.h"
#include "interval/forward.h"
#include "interval/interval.h"
#include "model/model.h"
#include "sim/simulator.h"
#include "solver/distance_tape.h"
#include "solver/local_search.h"
#include "solver/solver.h"
#include "stcg/stcg_generator.h"
#include "util/rng.h"

#include "fuzz_dag.h"

namespace stcg {
namespace {

using fuzz::clampInt;
using fuzz::clampReal;
using fuzz::FuzzDag;
using fuzz::kIntArrId;
using fuzz::kRealArrId;
using fuzz::makeFuzzDag;
using fuzz::randomEnv;
using fuzz::randomScalarFor;
using fuzz::sameBits;
using fuzz::sameInterval;
using fuzz::sameScalar;

using expr::Env;
using expr::ExprPtr;
using expr::Op;
using expr::Scalar;
using expr::SlotRef;
using expr::Type;
using expr::VarInfo;
using interval::Interval;

// Bitwise comparison helpers live in fuzz_dag.h (shared with the batch
// executor's differential tests and tools/tape_audit).

// ----- Tape basics ---------------------------------------------------------

TEST(TapeBasics, ConstantRootsNeedNoInstructions) {
  expr::TapeBuilder b;
  const auto c = expr::cReal(2.5);
  const SlotRef s1 = b.addRoot(c);
  const SlotRef s2 = b.addRoot(expr::cReal(2.5));  // distinct node, same bits
  const auto arr =
      expr::cArray(Type::kInt, {Scalar::i(1), Scalar::i(2)});
  const SlotRef sa = b.addRoot(arr);
  expr::TapeExecutor ex(b.finish());
  EXPECT_TRUE(ex.tape().code().empty());
  EXPECT_EQ(s1.slot, s2.slot) << "equal constants must share one slot";
  ex.run();  // no variables, no instructions: a no-op
  EXPECT_TRUE(sameScalar(ex.scalar(s1), Scalar::r(2.5)));
  ASSERT_TRUE(sa.isArray);
  ASSERT_EQ(ex.array(sa).size(), 2u);
  EXPECT_TRUE(sameScalar(ex.array(sa)[1], Scalar::i(2)));
}

TEST(TapeBasics, CseSharesSubtermsWithinAndAcrossRoots) {
  const VarInfo xi{0, "x", Type::kInt, -10, 10};
  const VarInfo yi{1, "y", Type::kInt, -10, 10};
  const auto x = expr::mkVar(xi);
  const auto y = expr::mkVar(yi);
  const auto common = expr::addE(x, y);
  expr::TapeBuilder b;
  (void)b.addRoot(expr::mulE(common, x));
  (void)b.addRoot(expr::subE(common, y));
  // A structurally identical add built from fresh nodes: value numbering
  // must fold it onto the existing instruction, not emit a new one.
  const SlotRef again = b.addRoot(expr::addE(expr::mkVar(xi), expr::mkVar(yi)));
  const SlotRef first = b.slotOf(common.get());
  EXPECT_EQ(again.slot, first.slot);
  expr::TapeExecutor ex(b.finish());
  // Exactly {add, mul, sub}: the shared add is emitted once.
  EXPECT_EQ(ex.tape().code().size(), 3u);
  ex.setVar(0, Scalar::i(4));
  ex.setVar(1, Scalar::i(7));
  ex.run();
  EXPECT_TRUE(sameScalar(ex.scalar(first), Scalar::i(11)));
}

TEST(TapeBasics, SlotOfUnknownNodeThrows) {
  expr::TapeBuilder b;
  (void)b.addRoot(expr::cInt(1));
  const auto stranger = expr::cInt(99);
  EXPECT_THROW((void)b.slotOf(stranger.get()), expr::EvalError);
}

TEST(TapeBasics, RunNamesTheFirstUnboundVariable) {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  const auto y = expr::mkVar({1, "lonely_y", Type::kInt, -10, 10});
  expr::TapeBuilder b;
  const SlotRef root = b.addRoot(expr::addE(x, y));
  expr::TapeExecutor ex(b.finish());
  ex.setVar(0, Scalar::i(1));
  try {
    ex.run();
    FAIL() << "expected EvalError for the unbound variable";
  } catch (const expr::EvalError& e) {
    EXPECT_NE(std::string(e.what()).find("lonely_y"), std::string::npos)
        << e.what();
  }
  ex.setVar(1, Scalar::i(2));
  ex.run();
  EXPECT_TRUE(sameScalar(ex.scalar(root), Scalar::i(3)));
}

TEST(TapeBasics, ConesCoverExactlyTheDependentInstructions) {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  const auto y = expr::mkVar({1, "y", Type::kInt, -10, 10});
  const auto z = expr::mkVar({2, "z", Type::kInt, -10, 10});
  expr::TapeBuilder b;
  const SlotRef sum = b.addRoot(expr::addE(x, y));      // depends on x, y
  const SlotRef dbl = b.addRoot(expr::mulE(z, z));      // depends on z only
  expr::TapeExecutor ex(b.finish());
  const auto* coneX = ex.tape().coneOf(0);
  ASSERT_NE(coneX, nullptr);
  EXPECT_EQ(coneX->size(), 1u);
  const auto* coneZ = ex.tape().coneOf(2);
  ASSERT_NE(coneZ, nullptr);
  EXPECT_EQ(coneZ->size(), 1u);
  EXPECT_NE((*coneX)[0], (*coneZ)[0]);
  EXPECT_EQ(ex.tape().coneOf(77), nullptr) << "unknown variable: no cone";
  EXPECT_GE(ex.tape().maxConeSize(), 1u);

  ex.setVar(0, Scalar::i(1));
  ex.setVar(1, Scalar::i(2));
  ex.setVar(2, Scalar::i(5));
  ex.run();
  EXPECT_TRUE(sameScalar(ex.scalar(dbl), Scalar::i(25)));
  ex.setVar(2, Scalar::i(6));
  ex.runCone(2);
  EXPECT_TRUE(sameScalar(ex.scalar(dbl), Scalar::i(36)));
  EXPECT_TRUE(sameScalar(ex.scalar(sum), Scalar::i(3)))
      << "z's cone must not touch the x+y slot";
}

TEST(TapeBasics, DivModByConstantZeroMatchesGuardedTreeSemantics) {
  const VarInfo xi{0, "x", Type::kInt, -10, 10};
  const VarInfo ri{1, "r", Type::kReal, -100, 100};
  const auto x = expr::mkVar(xi);
  const auto r = expr::mkVar(ri);
  const std::vector<ExprPtr> roots = {
      expr::divE(x, expr::cInt(0)),    expr::modE(x, expr::cInt(0)),
      expr::divE(r, expr::cReal(0.0)), expr::modE(r, expr::cReal(0.0)),
      expr::divE(x, expr::cReal(0.0)),  // int/real promotes to real
  };
  expr::TapeBuilder b;
  std::vector<SlotRef> slots;
  for (const auto& e : roots) slots.push_back(b.addRoot(e));
  const auto tape = b.finish();
  // The builder keeps the guarded instructions (non-constant numerators),
  // so the executors' own x/0 and x%0 guards are what this pins.
  int guarded = 0;
  for (const auto& in : tape->code()) {
    guarded += in.op == Op::kDiv || in.op == Op::kMod ? 1 : 0;
  }
  ASSERT_EQ(guarded, static_cast<int>(roots.size()));
  EXPECT_TRUE(expr::verifyTape(*tape).ok());

  const int kLanes = 4;
  expr::BatchTapeExecutor batch(tape, kLanes);
  std::vector<Env> envs(kLanes);
  for (int lane = 0; lane < kLanes; ++lane) {
    Env& env = envs[static_cast<std::size_t>(lane)];
    env.set(0, Scalar::i(lane - 2));
    env.set(1, Scalar::r(0.25 * lane - 1.0));
    batch.bindEnv(lane, env);
  }
  batch.run();
  for (int lane = 0; lane < kLanes; ++lane) {
    const Env& env = envs[static_cast<std::size_t>(lane)];
    expr::TapeExecutor ex(tape);
    ex.bindEnv(env);
    ex.run();
    expr::Evaluator tree(env);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const Scalar expected = tree.evalScalar(roots[i]);
      EXPECT_TRUE(sameScalar(expected, ex.scalar(slots[i])))
          << "lane " << lane << " root " << i;
      EXPECT_TRUE(sameScalar(expected, batch.scalar(slots[i], lane)))
          << "lane " << lane << " root " << i;
    }
  }
}

// ----- Differential fuzz: concrete tape vs tree Evaluator ------------------

TEST(TapeFuzz, ScalarTapeMatchesTreeEvaluatorBitwise) {
  Rng rng(20260805);
  for (int trial = 0; trial < 25; ++trial) {
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

    expr::TapeExecutor ex(b.finish());
    Env env = randomEnv(rng, d);
    ex.bindEnv(env);
    ex.run();

    const auto checkAll = [&](const Env& cur, const char* what) {
      expr::Evaluator ev(cur);
      for (std::size_t i = 0; i < roots.size(); ++i) {
        if (roots[i]->isArray()) {
          const auto tree = ev.evalArray(roots[i]);
          const auto& tape = ex.array(slots[i]);
          ASSERT_EQ(tree.size(), tape.size())
              << what << " trial " << trial << " root " << i;
          for (std::size_t j = 0; j < tree.size(); ++j) {
            EXPECT_TRUE(sameScalar(tree[j], tape[j]))
                << what << " trial " << trial << " root " << i << " [" << j
                << "]";
          }
        } else {
          EXPECT_TRUE(sameScalar(ev.evalScalar(roots[i]), ex.scalar(slots[i])))
              << what << " trial " << trial << " root " << i;
        }
      }
    };
    checkAll(env, "full");

    // Incremental: mutate one variable at a time, replay only its cone on
    // the live executor, and require *every* root (not just the obviously
    // affected ones) to match a fresh tree evaluation — this catches any
    // instruction missing from a cone.
    for (int m = 0; m < 6; ++m) {
      const auto& v = d.vars[rng.index(d.vars.size())];
      const Scalar nv = randomScalarFor(rng, v);
      env.set(v.id, nv);
      ex.setVar(v.id, nv);
      ex.runCone(v.id);
      checkAll(env, "cone");
    }
    // One array-variable cone as well.
    std::vector<Scalar> ar;
    for (int i = 0; i < 4; ++i) {
      ar.push_back(Scalar::r(rng.uniformReal(-50.0, 50.0)));
    }
    env.setArray(kRealArrId, ar);
    ex.setArrayVar(kRealArrId, ar);
    ex.runCone(kRealArrId);
    checkAll(env, "array-cone");
  }
}

// ----- Differential fuzz: interval tape vs the tree walker -----------------

TEST(TapeFuzz, IntervalTapeMatchesTreeIntervalEvaluator) {
  Rng rng(77001);
  for (int trial = 0; trial < 20; ++trial) {
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

    // Bind a random subset; unbound variables must fall back to their
    // declared domains identically in both engines.
    const interval::IntervalEnv env =
        fuzz::randomIntervalEnv(rng, d, /*bindArrays=*/false);

    analysis::IntervalTapeExecutor ex(b.finish());
    ex.bind(env);
    ex.run();
    interval::ForwardEvaluator ev(env);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      if (roots[i]->isArray()) {
        const auto& tree = ev.evalArray(roots[i]);
        const auto& tape = ex.array(slots[i]);
        ASSERT_EQ(tree.size(), tape.size()) << "trial " << trial;
        for (std::size_t j = 0; j < tree.size(); ++j) {
          EXPECT_TRUE(sameInterval(tree[j], tape[j]))
              << "trial " << trial << " root " << i << " [" << j << "]: ["
              << tree[j].lo() << "," << tree[j].hi() << "] vs ["
              << tape[j].lo() << "," << tape[j].hi() << "]";
        }
      } else {
        const Interval tree = ev.evalScalar(roots[i]);
        const Interval& tape = ex.scalar(slots[i]);
        EXPECT_TRUE(sameInterval(tree, tape))
            << "trial " << trial << " root " << i << ": [" << tree.lo() << ","
            << tree.hi() << "] vs [" << tape.lo() << "," << tape.hi() << "]";
      }
    }
  }
}

// ----- Differential fuzz: DistanceTape vs branchDistance -------------------

TEST(TapeFuzz, DistanceTapeMatchesBranchDistanceBitwise) {
  Rng rng(5150);
  for (int trial = 0; trial < 20; ++trial) {
    // Scalar-only DAG: the hill climber's goals range over input scalars.
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/false);
    ExprPtr goal = d.bools[rng.index(d.bools.size())];
    goal = expr::andE(std::move(goal), d.bools[rng.index(d.bools.size())]);
    goal = expr::orE(std::move(goal), d.bools[rng.index(d.bools.size())]);

    solver::DistanceTape dt(goal, d.vars);
    EXPECT_GT(dt.overlayInstrCount() + 1, 0u);  // touch the diagnostics

    const auto toEnv = [&](const std::vector<double>& p) {
      Env env;
      for (std::size_t i = 0; i < d.vars.size(); ++i) {
        env.set(d.vars[i].id, solver::scalarForVar(d.vars[i], p[i]));
      }
      return env;
    };
    const auto randomCoord = [&](const VarInfo& v) -> double {
      if (v.type == Type::kReal) return rng.uniformReal(v.lo, v.hi);
      return static_cast<double>(
          rng.uniformInt(static_cast<std::int64_t>(v.lo),
                         static_cast<std::int64_t>(v.hi)));
    };

    std::vector<double> point(d.vars.size());
    for (std::size_t i = 0; i < point.size(); ++i) {
      point[i] = randomCoord(d.vars[i]);
    }
    EXPECT_EQ(dt.rebind(point),
              solver::branchDistance(goal, toEnv(point), true))
        << "trial " << trial << " initial rebind";

    // The climber's pattern: single-coordinate mutations scored through
    // the dirty cone. Every cost must equal the full tree walk exactly.
    for (int m = 0; m < 25; ++m) {
      const std::size_t i = rng.index(d.vars.size());
      point[i] = randomCoord(d.vars[i]);
      EXPECT_EQ(dt.update(i, point[i]),
                solver::branchDistance(goal, toEnv(point), true))
          << "trial " << trial << " move " << m;
    }
    // And a mid-stream full rebind (restart path).
    EXPECT_EQ(dt.rebind(point),
              solver::branchDistance(goal, toEnv(point), true))
        << "trial " << trial << " restart rebind";
  }
}

// ----- Simulator: tape engine vs tree engine on the bench suite ------------

class TapeSimSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(TapeSimSweep, TapeAndTreeEnginesAgreeStepForStep) {
  const auto cm = compile::compile(bench::buildBenchModel(GetParam()));
  sim::Simulator tape(cm);  // kTape is the default
  sim::Simulator tree(cm, sim::EvalEngine::kTree);
  EXPECT_EQ(tape.engine(), sim::EvalEngine::kTape);
  EXPECT_EQ(tree.engine(), sim::EvalEngine::kTree);
  coverage::CoverageTracker covTape(cm);
  coverage::CoverageTracker covTree(cm);

  Rng rng(2026);
  sim::StateSnapshot mark = tape.snapshot();
  for (int stepNo = 0; stepNo < 250; ++stepNo) {
    if (stepNo == 100) mark = tape.snapshot();
    if (stepNo == 200) {  // exercise the restore path under both engines
      tape.restore(mark);
      tree.restore(mark);
    }
    const auto in = sim::randomInput(cm, rng);
    const auto ra = tape.step(in, &covTape);
    const auto rb = tree.step(in, &covTree);
    EXPECT_EQ(ra.newlyCovered, rb.newlyCovered) << "step " << stepNo;
    EXPECT_EQ(ra.newConditionObservation, rb.newConditionObservation)
        << "step " << stepNo;
    const auto& outA = tape.lastOutputs();
    const auto& outB = tree.lastOutputs();
    ASSERT_EQ(outA.size(), outB.size());
    for (std::size_t i = 0; i < outA.size(); ++i) {
      EXPECT_TRUE(sameScalar(outA[i], outB[i]))
          << "step " << stepNo << " output " << i;
    }
    EXPECT_TRUE(tape.state() == tree.state()) << "step " << stepNo;
    EXPECT_EQ(sim::snapshotHash(tape.state()), sim::snapshotHash(tree.state()))
        << "step " << stepNo;
  }
  EXPECT_EQ(covTape.coveredBranchCount(), covTree.coveredBranchCount());
  EXPECT_EQ(covTape.decisionCoverage(), covTree.decisionCoverage());
  EXPECT_EQ(covTape.conditionCoverage(), covTree.conditionCoverage());
  EXPECT_EQ(covTape.mcdcCoverage(), covTree.mcdcCoverage());
}

INSTANTIATE_TEST_SUITE_P(AllModels, TapeSimSweep,
                         ::testing::Values("CPUTask", "AFC", "TWC",
                                           "NICProtocol", "UTPC", "LANSwitch",
                                           "LEDLC", "TCP"));

// ----- Batched interval verdicts under the real state invariants -----------

TEST(IntervalTape, BatchVerdictsMatchTreeWalkUnderModelInvariants) {
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(info.build());
    const auto inv = analysis::computeStateInvariant(cm);
    std::vector<ExprPtr> roots;
    for (const auto& br : cm.branches) roots.push_back(br.pathConstraint);
    for (const auto& obj : cm.objectives) {
      roots.push_back(expr::andE(obj.activation, obj.cond));
    }
    if (roots.empty()) continue;
    const auto batch = analysis::intervalVerdicts(roots, inv.env);
    ASSERT_EQ(batch.size(), roots.size()) << info.name;
    interval::ForwardEvaluator ev(inv.env);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const Interval tree = ev.evalScalar(roots[i]);
      EXPECT_TRUE(sameInterval(tree, batch[i]))
          << info.name << " constraint " << i << ": [" << tree.lo() << ","
          << tree.hi() << "] vs [" << batch[i].lo() << "," << batch[i].hi()
          << "]";
    }
  }
}

// ----- LocalSearchSolver: identical search under either engine -------------

TEST(LocalSearchEngines, TapeAndTreeProduceIdenticalResults) {
  const VarInfo x{201, "x", Type::kReal, -10, 10};
  const VarInfo y{202, "y", Type::kReal, -10, 10};
  const auto dx = expr::subE(expr::mkVar(x), expr::cReal(3.0));
  const auto dy = expr::addE(expr::mkVar(y), expr::cReal(2.0));
  const auto goal = expr::leE(
      expr::addE(expr::mulE(dx, dx), expr::mulE(dy, dy)), expr::cReal(0.5));

  solver::SolveOptions so;
  so.seed = 5;
  so.timeBudgetMillis = 5000;  // generous: both runs terminate on SAT
  solver::LocalSearchSolver tapeSolver(so);  // kTape is the default
  solver::LocalSearchSolver treeSolver(so, solver::LocalSearchSolver::Engine::kTree);
  const auto ra = tapeSolver.solve(goal, {x, y});
  const auto rb = treeSolver.solve(goal, {x, y});
  ASSERT_TRUE(ra.sat());
  ASSERT_TRUE(rb.sat());
  EXPECT_EQ(ra.stats.samplesTried, rb.stats.samplesTried)
      << "bit-identical costs must drive the identical search path";
  EXPECT_TRUE(sameBits(ra.model.get(x.id).toReal(), rb.model.get(x.id).toReal()));
  EXPECT_TRUE(sameBits(ra.model.get(y.id).toReal(), rb.model.get(y.id).toReal()));
}

// ----- End-to-end: StcgGenerator result pinned across sim engines ----------

// The latch model from the parallel-determinism tests: deep state, full
// branch coverage reachable, so runs terminate on coverage (not the wall
// clock) and the whole GenResult is comparable.
model::Model makeLatchModel() {
  model::Model m("Latch");
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

void expectIdenticalGen(const gen::GenResult& a, const gen::GenResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.tests.size(), b.tests.size()) << what;
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].steps, b.tests[i].steps) << what << " test " << i;
    EXPECT_EQ(a.tests[i].origin, b.tests[i].origin) << what << " test " << i;
    EXPECT_EQ(a.tests[i].goalLabel, b.tests[i].goalLabel)
        << what << " test " << i;
  }
  EXPECT_EQ(a.coverage.decision, b.coverage.decision) << what;
  EXPECT_EQ(a.coverage.condition, b.coverage.condition) << what;
  EXPECT_EQ(a.coverage.mcdc, b.coverage.mcdc) << what;
  EXPECT_EQ(a.coverage.coveredBranches, b.coverage.coveredBranches) << what;
  EXPECT_EQ(a.stats.solveCalls, b.stats.solveCalls) << what;
  EXPECT_EQ(a.stats.solveSat, b.stats.solveSat) << what;
  EXPECT_EQ(a.stats.stepsExecuted, b.stats.stepsExecuted) << what;
  EXPECT_EQ(a.stats.treeNodes, b.stats.treeNodes) << what;
  EXPECT_EQ(a.stats.randomSequences, b.stats.randomSequences) << what;
}

TEST(StcgEngines, GenResultIdenticalAcrossSimEngines) {
  const auto cm = compile::compile(makeLatchModel());
  const auto runWith = [&](sim::EvalEngine engine) {
    gen::GenOptions opt;
    opt.budgetMillis = 30000;  // non-binding: the run stops on coverage
    opt.seed = 77;
    opt.solver.timeBudgetMillis = 1000;
    opt.includeConditionGoals = false;  // see test_parallel_gen.cpp
    opt.simEngine = engine;
    gen::StcgGenerator g;
    return g.generate(cm, opt);
  };
  const auto tape = runWith(sim::EvalEngine::kTape);
  EXPECT_EQ(tape.coverage.decision, 1.0)
      << "latch must reach full coverage for the comparison to be stable";
  expectIdenticalGen(tape, runWith(sim::EvalEngine::kTree), "latch engines");
}

TEST(StcgEngines, SimEngineDefaultsToTape) {
  const gen::GenOptions opt;
  EXPECT_EQ(opt.simEngine, sim::EvalEngine::kTape);
}

// ----- Saturating real->int cast: edges pinned across all engines ----------

TEST(TapeCast, SaturatingRealToIntEdgesBitIdenticalAcrossEngines) {
  const VarInfo r{0, "r", Type::kReal, -1e300, 1e300};
  const auto root = expr::castE(expr::mkVar(r), Type::kInt);
  expr::TapeBuilder b;
  const auto slot = b.addRoot(root);
  const auto tape = b.finish();

  expr::TapeExecutor interp(tape);
  expr::BatchTapeExecutor batch(tape, 2);

  const double edges[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      9.2e18,
      -9.2e18,
      9.3e18,
      -9.3e18,
      static_cast<double>(std::numeric_limits<std::int64_t>::max()),
      static_cast<double>(std::numeric_limits<std::int64_t>::min()),
      -0.0,
      0.5,
      -123456.75,
  };
  for (const double v : edges) {
    const std::int64_t want = expr::saturatingRealToInt(v);

    Env env;
    env.set(r.id, Scalar::r(v));
    EXPECT_EQ(expr::evaluate(root, env).toInt(), want) << v;

    interp.setVar(r.id, Scalar::r(v));
    interp.run();
    EXPECT_EQ(interp.scalar(slot).toInt(), want) << v;

    batch.setVar(0, r.id, Scalar::r(v));
    batch.setVarReal(1, r.id, v);
    batch.run();
    EXPECT_EQ(batch.scalar(slot, 0).toInt(), want) << v;
    EXPECT_EQ(batch.scalar(slot, 1).toInt(), want) << v;
  }
  // Helper spot checks, pinning the documented mapping itself.
  EXPECT_EQ(expr::saturatingRealToInt(
                std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(expr::saturatingRealToInt(1e19),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(expr::saturatingRealToInt(-1e19),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(expr::saturatingRealToInt(-2.75), -2);
}

// ----- Satellite regressions ----------------------------------------------

TEST(EvaluatorRegression, PinnedRootsDoNotGrowOnRepeatedEval) {
  const auto v = expr::mkVar({0, "v", Type::kInt, -10, 10});
  const auto root = expr::addE(v, expr::cInt(1));
  Env env;
  env.set(0, Scalar::i(41));
  expr::Evaluator ev(env);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(sameScalar(ev.evalScalar(root), Scalar::i(42)));
  }
  EXPECT_EQ(ev.pinnedRootCount(), 1u)
      << "re-evaluating one root must pin it exactly once";
  const auto root2 = expr::subE(v, expr::cInt(1));
  (void)ev.evalScalar(root2);
  (void)ev.evalScalar(root2);
  EXPECT_EQ(ev.pinnedRootCount(), 2u);

  // Array roots go through the same dedup.
  const auto arr = expr::mkVarArray(1, "a", Type::kInt, 2);
  env.setArray(1, {Scalar::i(1), Scalar::i(2)});
  expr::Evaluator ev2(env);
  for (int i = 0; i < 50; ++i) (void)ev2.evalArray(arr);
  EXPECT_EQ(ev2.pinnedRootCount(), 1u);
}

TEST(IntervalEvaluatorRegression, PinnedRootsDoNotGrowOnRepeatedEval) {
  const auto v = expr::mkVar({0, "v", Type::kReal, -5, 5});
  const auto root = expr::mulE(v, v);
  interval::IntervalEnv env;
  env.set(0, Interval(1.0, 2.0));
  interval::ForwardEvaluator ev(env);
  for (int i = 0; i < 100; ++i) (void)ev.evalScalar(root);
  EXPECT_EQ(ev.pinnedRootCount(), 1u);
  const auto arr = expr::mkVarArray(1, "a", Type::kReal, 3);
  for (int i = 0; i < 50; ++i) (void)ev.evalArray(arr);
  EXPECT_EQ(ev.pinnedRootCount(), 2u);
}

TEST(EnvReserve, ReserveKeepsSetGetSemantics) {
  Env env;
  env.reserve(4);
  env.set(0, Scalar::i(10));
  env.set(3, Scalar::r(2.5));
  EXPECT_TRUE(env.has(0));
  EXPECT_TRUE(env.has(3));
  EXPECT_FALSE(env.has(2));
  EXPECT_TRUE(sameScalar(env.get(3), Scalar::r(2.5)));
  // Setting past the reserved range still grows.
  env.set(10, Scalar::b(true));
  EXPECT_TRUE(env.has(10));
  EXPECT_TRUE(env.get(10).toBool());
  EXPECT_EQ(env.size(), 3u);
  // A smaller reserve never shrinks or drops bindings.
  env.reserve(1);
  EXPECT_TRUE(env.has(10));
  EXPECT_TRUE(sameScalar(env.get(0), Scalar::i(10)));
}

TEST(EnvReserve, CompiledModelVarCountCoversAllIds) {
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(info.build());
    const std::size_t n = cm.varCount();
    for (const auto& in : cm.inputs) {
      EXPECT_LT(static_cast<std::size_t>(in.info.id), n) << info.name;
    }
    for (const auto& sv : cm.states) {
      EXPECT_LT(static_cast<std::size_t>(sv.id), n) << info.name;
    }
  }
}

}  // namespace
}  // namespace stcg
