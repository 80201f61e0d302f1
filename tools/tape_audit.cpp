// Standalone tape-audit gate for tools/check.sh: sweeps every tape the
// engines would execute and exits non-zero on any verifier finding or any
// tape-vs-tree differential mismatch. Runs in three stages:
//
//   1. bench models:  sim / interval / distance tapes of all eight bench
//      models verify with no finding (no error, no missed-CSE warning).
//   2. random models: a corpus of randomly wired block models (delays for
//      state, switches for branches) goes through the same sweep, so the
//      verifier sees shapes no hand-written model exercises.
//   3. random DAGs:   fuzz_dag expression corpora run on the tape
//      executor — full run plus incremental cone replay — and every root
//      is compared bitwise against the tree Evaluator; the same tape then
//      runs on the interval tape executor under a random interval
//      environment (both array variables bound) and every root is compared
//      bitwise against the interval tree walker, so the sweep also gates
//      the shared forward interval rules.
//
// check.sh runs the full sweep inside the ASan/UBSan build and the
// `--quick` gate inside the Release bench build.
//
// Usage: tape_audit [--quick] [--models N] [--fuzz N] [--seed S]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/interval_tape.h"
#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "compile/model_tape.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "expr/tape.h"
#include "expr/tape_verify.h"
#include "interval/forward.h"
#include "model/model.h"
#include "solver/distance_tape.h"
#include "util/rng.h"

#include "fuzz_dag.h"

namespace stcg {
namespace {

using expr::ExprPtr;
using expr::Scalar;
using expr::Type;
using model::Model;
using model::PortRef;

int failures = 0;

void fail(const std::string& msg) {
  std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
  ++failures;
}

void verifyClean(const expr::Tape& t, const std::string& what) {
  const expr::TapeVerifyResult res = expr::verifyTape(t);
  if (!res.ok()) fail(what + " failed verification:\n" + res.render());
}

// ----- stages 1 and 2: whole-model sweep ------------------------------------

struct SweepStats {
  int models = 0;
  int distanceTapes = 0;
};

/// Verify every tape this compiled model can hand an engine: the
/// simulation ModelTape, the interval tape over the next-state roots, and
/// one distance tape per branch path constraint (the distance build is
/// replicated from the DistanceTape constructor so it is verified
/// explicitly even in Release, where the producers' own
/// maybeRequireVerifiedTape is off).
void auditCompiledModel(const compile::CompiledModel& cm,
                        const std::string& name, SweepStats& stats) {
  try {
    const compile::ModelTape mt = compile::buildModelTape(cm);
    verifyClean(*mt.tape, name + " sim");
    ++stats.models;

    if (!cm.states.empty()) {
      std::vector<ExprPtr> nextRoots;
      nextRoots.reserve(cm.states.size());
      for (const auto& sv : cm.states) nextRoots.push_back(sv.next);
      const analysis::IntervalTapeBuild built =
          analysis::buildIntervalTape(nextRoots);
      verifyClean(*built.tape, name + " interval");
    }

    for (const auto& br : cm.branches) {
      try {
        expr::TapeBuilder b;
        (void)solver::buildDistanceProgram(br.pathConstraint, b);
        verifyClean(*b.finish(), name + " distance:" + br.label);
        ++stats.distanceTapes;
      } catch (const expr::EvalError&) {
        // Non-boolean / array goal: the solver would not compile it either.
      }
    }
  } catch (const expr::EvalError& e) {
    fail(name + ": tape construction failed: " + std::string(e.what()));
  }
}

/// A randomly wired block model: real-typed dataflow grown from a few
/// inports, unit delays for state (inputs saturated so the interval
/// fixpoint stays bounded), switches for branch structure, and a
/// compare-to-const test objective when one is available.
Model randomModel(Rng& rng, int idx) {
  Model m("fuzzmodel" + std::to_string(idx));
  std::vector<PortRef> reals, bools;
  int id = 0;
  const auto nm = [&](const char* base) {
    return std::string(base) + std::to_string(id++);
  };
  const auto pick = [&](const std::vector<PortRef>& p) {
    return p[rng.index(p.size())];
  };

  const int nIn = rng.uniformInt(2, 4);
  for (int i = 0; i < nIn; ++i) {
    reals.push_back(m.addInport(nm("in"), Type::kReal, -50, 50));
  }
  std::vector<PortRef> delays;
  const int nDelay = rng.uniformInt(1, 2);
  for (int i = 0; i < nDelay; ++i) {
    delays.push_back(m.addUnitDelayHole(nm("d"), Scalar::r(0.0)));
    reals.push_back(delays.back());
  }

  const int kGrow = rng.uniformInt(12, 28);
  for (int it = 0; it < kGrow; ++it) {
    switch (rng.index(bools.empty() ? 6 : 7)) {
      case 0:
        reals.push_back(m.addSum(nm("s"), {pick(reals), pick(reals)},
                                 rng.chance(0.5) ? "++" : "+-"));
        break;
      case 1:
        reals.push_back(
            m.addGain(nm("g"), pick(reals), rng.uniformReal(-3.0, 3.0)));
        break;
      case 2:
        reals.push_back(m.addMinMax(
            nm("m"),
            rng.chance(0.5) ? model::MinMaxOp::kMin : model::MinMaxOp::kMax,
            pick(reals), pick(reals)));
        break;
      case 3:
        reals.push_back(m.addSaturation(nm("sat"), pick(reals), -100, 100));
        break;
      case 4:
        bools.push_back(m.addCompareToConst(
            nm("c"), pick(reals), static_cast<model::RelOp>(rng.index(6)),
            rng.uniformReal(-20.0, 20.0)));
        break;
      case 5:
        reals.push_back(m.addSwitch(nm("sw"), pick(reals), pick(reals),
                                    pick(reals),
                                    model::SwitchCriteria::kGreaterThan,
                                    rng.uniformReal(-10.0, 10.0)));
        break;
      default:
        reals.push_back(m.addAbs(nm("a"), pick(reals)));
        break;
    }
  }
  for (const PortRef& d : delays) {
    m.bindDelayInput(d, m.addSaturation(nm("dsat"), pick(reals), -100, 100));
  }
  m.addOutport("y", pick(reals));
  if (!bools.empty()) m.addTestObjective("obj", pick(bools));
  return m;
}

// ----- stage 3: random-DAG differential --------------------------------------

void fuzzDagTrial(Rng& rng, int trial) {
  fuzz::FuzzDag d = fuzz::makeFuzzDag(rng, /*withArrays=*/true);
  expr::TapeBuilder b;
  std::vector<ExprPtr> roots;
  std::vector<expr::SlotRef> slots;
  const auto addRootFrom = [&](const std::vector<ExprPtr>& pool) {
    roots.push_back(pool[rng.index(pool.size())]);
    slots.push_back(b.addRoot(roots.back()));
  };
  for (int i = 0; i < 3; ++i) addRootFrom(d.bools);
  for (int i = 0; i < 2; ++i) {
    addRootFrom(d.ints);
    addRootFrom(d.reals);
  }
  addRootFrom(d.realArrays);
  addRootFrom(d.intArrays);

  const std::string where = "dag trial " + std::to_string(trial);
  const auto tape = b.finish();
  verifyClean(*tape, where);

  expr::TapeExecutor ex(tape);
  expr::Env env = fuzz::randomEnv(rng, d);
  ex.bindEnv(env);
  ex.run();

  const auto checkAll = [&](const char* what) {
    expr::Evaluator tree(env);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const std::string at = where + " " + what + " root " +
                             std::to_string(i);
      if (roots[i]->isArray()) {
        const auto want = tree.evalArray(roots[i]);
        const auto& got = ex.array(slots[i]);
        if (want.size() != got.size()) {
          fail(at + ": array width mismatch");
          continue;
        }
        for (std::size_t j = 0; j < want.size(); ++j) {
          if (!fuzz::sameScalar(want[j], got[j])) {
            fail(at + " [" + std::to_string(j) + "]: tape != tree");
          }
        }
      } else if (!fuzz::sameScalar(tree.evalScalar(roots[i]),
                                   ex.scalar(slots[i]))) {
        fail(at + ": tape != tree");
      }
    }
  };
  checkAll("full");

  // Incremental cone replay must match a fresh tree evaluation on every
  // root, which catches any instruction missing from a cone.
  for (int mut = 0; mut < 4; ++mut) {
    const auto& v = d.vars[rng.index(d.vars.size())];
    const Scalar nv = fuzz::randomScalarFor(rng, v);
    env.set(v.id, nv);
    ex.setVar(v.id, nv);
    ex.runCone(v.id);
    checkAll("cone");
  }

  // Interval tape vs the interval tree walker on the same tape.
  const interval::IntervalEnv ienv =
      fuzz::randomIntervalEnv(rng, d, /*bindArrays=*/true);
  analysis::IntervalTapeExecutor iex(tape);
  iex.bind(ienv);
  iex.run();
  interval::ForwardEvaluator walker(ienv);
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const std::string at = where + " interval root " + std::to_string(i);
    if (roots[i]->isArray()) {
      const auto& want = walker.evalArray(roots[i]);
      const auto& got = iex.array(slots[i]);
      if (want.size() != got.size()) {
        fail(at + ": array width mismatch");
        continue;
      }
      for (std::size_t j = 0; j < want.size(); ++j) {
        if (!fuzz::sameInterval(want[j], got[j])) {
          fail(at + " [" + std::to_string(j) + "]: tape != tree");
        }
      }
    } else if (!fuzz::sameInterval(walker.evalScalar(roots[i]),
                                   iex.scalar(slots[i]))) {
      fail(at + ": tape != tree");
    }
  }
}

int runAudit(int argc, char** argv) {
  int nModels = 20;
  int nFuzz = 60;
  std::uint64_t seed = 20260807;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      nModels = 6;
      nFuzz = 12;
    } else if (a == "--models" && i + 1 < argc) {
      nModels = std::atoi(argv[++i]);
    } else if (a == "--fuzz" && i + 1 < argc) {
      nFuzz = std::atoi(argv[++i]);
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: tape_audit [--quick] [--models N] [--fuzz N] "
                   "[--seed S]\n");
      return 2;
    }
  }

  SweepStats bench;
  for (const auto& info : stcg::bench::allBenchModels()) {
    auditCompiledModel(compile::compile(stcg::bench::buildBenchModel(info.name)),
                       info.name, bench);
  }
  std::printf("bench models: %d audited, %d distance tapes\n", bench.models,
              bench.distanceTapes);

  Rng rng(seed);
  SweepStats random;
  for (int i = 0; i < nModels; ++i) {
    auditCompiledModel(compile::compile(randomModel(rng, i)),
                       "random model " + std::to_string(i), random);
  }
  std::printf("random models: %d audited, %d distance tapes\n",
              random.models, random.distanceTapes);

  for (int t = 0; t < nFuzz; ++t) fuzzDagTrial(rng, t);
  std::printf("random DAGs: %d differential trials\n", nFuzz);

  if (failures > 0) {
    std::fprintf(stderr, "tape audit FAILED: %d finding(s)\n", failures);
    return 1;
  }
  std::printf("tape audit passed\n");
  return 0;
}

}  // namespace
}  // namespace stcg

int main(int argc, char** argv) { return stcg::runAudit(argc, argv); }
