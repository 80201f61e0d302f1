// Static tape verifier tests.
//
//   - corrupted-tape rejection: each TapeIssueKind is provoked through
//     TapeRewriter on an otherwise-clean tape and must come back as a
//     typed finding (and requireVerifiedTape must throw on errors),
//   - the builder property every engine relies on: all eight bench
//     models' sim, interval and distance tapes verify with no finding at
//     all — no error and no missed-CSE warning.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
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
#include "solver/distance_tape.h"

namespace stcg {
namespace {

using expr::ExprPtr;
using expr::Op;
using expr::Scalar;
using expr::Tape;
using expr::TapeIssueKind;
using expr::TapeRewriter;
using expr::Type;

// ----- Verifier: corrupted-tape rejection ----------------------------------

bool hasKind(const expr::TapeVerifyResult& res, TapeIssueKind k) {
  for (const auto& issue : res.issues) {
    if (issue.kind == k) return true;
  }
  return false;
}

/// A small clean tape to corrupt: two int variables, two dependent
/// temporaries, one constant. code: [add x y, mul add c3].
std::shared_ptr<const Tape> cleanTape() {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  const auto y = expr::mkVar({1, "y", Type::kInt, -10, 10});
  expr::TapeBuilder b;
  (void)b.addRoot(expr::mulE(expr::addE(x, y), expr::cInt(3)));
  return b.finish();
}

TEST(TapeVerify, CleanTapeVerifiesOk) {
  const auto t = cleanTape();
  const auto res = expr::verifyTape(*t);
  EXPECT_TRUE(res.ok()) << res.render();
}

TEST(TapeVerify, RejectsSlotBoundsViolation) {
  Tape t = *cleanTape();
  TapeRewriter(t).code()[0].a = 9999;
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kSlotBounds)) << res.render();
}

TEST(TapeVerify, RejectsUseBeforeDef) {
  Tape t = *cleanTape();
  ASSERT_GE(t.code().size(), 2u);
  // First instruction reads the second's (not-yet-written) destination.
  TapeRewriter rw(t);
  rw.code()[0].b = rw.code()[1].dst;
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kUseBeforeDef)) << res.render();
}

TEST(TapeVerify, RejectsConstantClobber) {
  Tape t = *cleanTape();
  ASSERT_FALSE(t.constScalarSlots().empty());
  TapeRewriter rw(t);
  rw.code()[0].dst = t.constScalarSlots()[0];
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kConstClobbered)) << res.render();
}

TEST(TapeVerify, RejectsTypeMismatch) {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  const auto y = expr::mkVar({1, "y", Type::kInt, -10, 10});
  expr::TapeBuilder b;
  (void)b.addRoot(expr::ltE(x, y));
  Tape t = *b.finish();
  TapeRewriter rw(t);
  ASSERT_EQ(rw.code()[0].op, Op::kLt);
  rw.code()[0].type = Type::kInt;  // comparisons must produce kBool lanes
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kTypeMismatch)) << res.render();
}

TEST(TapeVerify, RejectsUndefinedRoot) {
  Tape t = *cleanTape();
  TapeRewriter rw(t);
  rw.scalarInit().push_back(Scalar::i(0));
  rw.rootSlots().push_back(
      {static_cast<std::int32_t>(t.scalarSlotCount()) - 1, false});
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kRootUndefined)) << res.render();
}

TEST(TapeVerify, RejectsStaleCone) {
  Tape t = *cleanTape();
  TapeRewriter rw(t);
  ASSERT_FALSE(rw.cones().empty());
  ASSERT_FALSE(rw.cones()[0].second.empty());
  rw.cones()[0].second.clear();  // pretend nothing depends on the variable
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kStaleCone)) << res.render();
}

TEST(TapeVerify, RejectsUnsafeSharing) {
  Tape t = *cleanTape();
  TapeRewriter rw(t);
  ASSERT_EQ(rw.code().size(), 2u);
  // Let the mul write the add's slot, which it also reads. Both writers
  // depend on exactly {x, y}, so every cone that replays one replays
  // both in order: this sharing is cone-coherent. Tapes are still
  // single-assignment, and a second writer is rejected all the same.
  const std::int32_t shared = rw.code()[0].dst;
  ASSERT_EQ(rw.code()[1].a, shared);
  rw.code()[1].dst = shared;
  rw.rootSlots()[0] = {shared, false};
  rw.recomputeCones();
  for (const auto& [var, cone] : t.cones()) {
    EXPECT_EQ(cone, (std::vector<std::int32_t>{0, 1})) << "var " << var;
  }
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kUnsafeSharing)) << res.render();
}

TEST(TapeVerify, WarnsOnCseDuplicate) {
  Tape t = *cleanTape();
  TapeRewriter rw(t);
  // Re-emit the first instruction verbatim into a fresh slot: a live
  // duplicate the builder's value numbering would have merged.
  rw.scalarInit().push_back(Scalar::i(0));
  expr::TapeInstr dup = rw.code()[0];
  dup.dst = static_cast<std::int32_t>(t.scalarSlotCount()) - 1;
  rw.code().push_back(dup);
  rw.rootSlots().push_back({dup.dst, false});
  rw.recomputeCones();
  const auto res = expr::verifyTape(t);
  EXPECT_FALSE(res.hasErrors()) << res.render();
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kCseDuplicate)) << res.render();
}

TEST(TapeVerify, RequireVerifiedTapeThrowsTypedDiagnostic) {
  Tape t = *cleanTape();
  TapeRewriter(t).code()[0].a = 9999;
  try {
    expr::requireVerifiedTape(t, "corrupted");
    FAIL() << "expected EvalError";
  } catch (const expr::EvalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupted"), std::string::npos) << what;
    EXPECT_NE(what.find("tape-"), std::string::npos)
        << "message must carry the stable check id: " << what;
  }
}

// ----- Builder tapes of the eight bench models ------------------------------

TEST(TapeVerify, BenchModelTapesVerifyWithNoFinding) {
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(bench::buildBenchModel(info.name));

    const compile::ModelTape mt = compile::buildModelTape(cm);
    const auto sim = expr::verifyTape(*mt.tape);
    EXPECT_TRUE(sim.ok()) << info.name << " sim\n" << sim.render();

    if (!cm.states.empty()) {
      std::vector<ExprPtr> nextRoots;
      for (const auto& sv : cm.states) nextRoots.push_back(sv.next);
      const auto built = analysis::buildIntervalTape(nextRoots);
      const auto res = expr::verifyTape(*built.tape);
      EXPECT_TRUE(res.ok()) << info.name << " interval\n" << res.render();
    }

    int distanceTapes = 0;
    for (const auto& br : cm.branches) {
      expr::TapeBuilder b;
      try {
        (void)solver::buildDistanceProgram(br.pathConstraint, b);
      } catch (const expr::EvalError&) {
        continue;  // non-boolean / array goal: the solver skips it too
      }
      const auto res = expr::verifyTape(*b.finish());
      EXPECT_TRUE(res.ok()) << info.name << " distance " << br.label << "\n"
                            << res.render();
      ++distanceTapes;
    }
    EXPECT_GT(distanceTapes, 0) << info.name;
  }
}

}  // namespace
}  // namespace stcg
