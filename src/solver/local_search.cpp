#include "solver/local_search.h"

#include <algorithm>
#include <cmath>

#include <optional>

#include "expr/eval.h"
#include "solver/distance_tape.h"
#include "util/stopwatch.h"

namespace stcg::solver {

using expr::Env;
using expr::Expr;
using expr::ExprPtr;
using expr::Op;
using expr::Scalar;
using expr::Type;
using expr::VarInfo;

namespace {

constexpr double kEps = 1e-6;

double distanceRec(const ExprPtr& e, expr::Evaluator& ev, bool want);

double atomDistance(const ExprPtr& e, expr::Evaluator& ev, bool want) {
  const auto lhs = [&] { return ev.evalScalar(e->args[0]).toReal(); };
  const auto rhs = [&] { return ev.evalScalar(e->args[1]).toReal(); };
  switch (e->op) {
    case Op::kEq: {
      const double d = std::fabs(lhs() - rhs());
      return want ? d : (d == 0.0 ? 1.0 : 0.0);
    }
    case Op::kNe: {
      const double d = std::fabs(lhs() - rhs());
      return want ? (d == 0.0 ? 1.0 : 0.0) : d;
    }
    case Op::kLt: {
      const double d = lhs() - rhs();
      return want ? (d < 0.0 ? 0.0 : d + kEps)
                  : (d >= 0.0 ? 0.0 : kEps - d);
    }
    case Op::kLe: {
      const double d = lhs() - rhs();
      return want ? (d <= 0.0 ? 0.0 : d) : (d > 0.0 ? 0.0 : kEps - d);
    }
    case Op::kGt: {
      const double d = rhs() - lhs();
      return want ? (d < 0.0 ? 0.0 : d + kEps)
                  : (d >= 0.0 ? 0.0 : kEps - d);
    }
    case Op::kGe: {
      const double d = rhs() - lhs();
      return want ? (d <= 0.0 ? 0.0 : d) : (d > 0.0 ? 0.0 : kEps - d);
    }
    default: {
      // Boolean leaf (variable, cast, select of booleans, ...): use its
      // concrete truth value; distance 0/1.
      return ev.evalScalar(e).toBool() == want ? 0.0 : 1.0;
    }
  }
}

double distanceRec(const ExprPtr& e, expr::Evaluator& ev, bool want) {
  switch (e->op) {
    case Op::kConst:
      return e->constVal.toBool() == want ? 0.0 : 1.0;
    case Op::kNot:
      return distanceRec(e->args[0], ev, !want);
    case Op::kAnd: {
      const double a = distanceRec(e->args[0], ev, want);
      const double b = distanceRec(e->args[1], ev, want);
      return want ? a + b : std::min(a, b);
    }
    case Op::kOr: {
      const double a = distanceRec(e->args[0], ev, want);
      const double b = distanceRec(e->args[1], ev, want);
      return want ? std::min(a, b) : a + b;
    }
    case Op::kXor: {
      // xor(a,b) == (a && !b) || (!a && b); negation flips to equivalence.
      const double aT = distanceRec(e->args[0], ev, true);
      const double aF = distanceRec(e->args[0], ev, false);
      const double bT = distanceRec(e->args[1], ev, true);
      const double bF = distanceRec(e->args[1], ev, false);
      return want ? std::min(aT + bF, aF + bT) : std::min(aT + bT, aF + bF);
    }
    case Op::kIte: {
      if (e->type != Type::kBool) break;
      const double cT = distanceRec(e->args[0], ev, true);
      const double cF = distanceRec(e->args[0], ev, false);
      const double t = distanceRec(e->args[1], ev, want);
      const double f = distanceRec(e->args[2], ev, want);
      return std::min(cT + t, cF + f);
    }
    default:
      break;
  }
  return atomDistance(e, ev, want);
}

}  // namespace

double branchDistance(const ExprPtr& goal, const Env& env, bool want) {
  expr::Evaluator ev(env);
  return distanceRec(goal, ev, want);
}

const char* solverKindName(SolverKind k) {
  switch (k) {
    case SolverKind::kBox: return "box";
    case SolverKind::kLocalSearch: return "local-search";
    case SolverKind::kPortfolio: return "portfolio";
  }
  return "?";
}

SolveResult LocalSearchSolver::solve(const ExprPtr& goal,
                                     const std::vector<VarInfo>& vars) {
  if (goal->type != Type::kBool || goal->isArray()) {
    throw expr::EvalError(
        "LocalSearchSolver::solve: goal must be a scalar boolean expression");
  }
  if (options_.batch < 0 || options_.batch > 4096) {
    throw expr::EvalError("LocalSearchSolver::solve: batch must be in "
                          "[0, 4096], got " +
                          std::to_string(options_.batch));
  }
  SolveResult result;
  Stopwatch watch;
  const Deadline deadline = Deadline::afterMillis(options_.timeBudgetMillis);
  Rng rng(options_.seed);

  const auto finish = [&](SolveStatus status) {
    result.status = status;
    result.stats.elapsedMillis = watch.elapsedMillis();
    return result;
  };

  if (goal->op == Op::kConst && !goal->constVal.toBool()) {
    return finish(SolveStatus::kUnsat);  // the one provable case
  }

  // Current point, stored as raw reals per variable.
  std::vector<double> point(vars.size());
  const auto randomize = [&] {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (vars[i].type == Type::kReal) {
        point[i] = rng.uniformReal(vars[i].lo, vars[i].hi);
      } else {
        const auto [lo, hi] = integerEndpoints(vars[i].lo, vars[i].hi);
        // lo > hi: no integer in the domain; start from the midpoint and
        // let the distance landscape (or the UNKNOWN verdict) handle it.
        point[i] = lo <= hi ? static_cast<double>(rng.uniformInt(lo, hi))
                            : (vars[i].lo + vars[i].hi) * 0.5;
      }
    }
  };
  expr::VarId maxVarId = -1;
  for (const auto& v : vars) maxVarId = std::max(maxVarId, v.id);
  const auto toEnv = [&](const std::vector<double>& p) {
    Env env;
    env.reserve(static_cast<std::size_t>(maxVarId + 1));
    for (std::size_t i = 0; i < vars.size(); ++i) {
      env.set(vars[i].id, scalarForVar(vars[i], p[i]));
    }
    return env;
  };
  // Tape engine: goal compiled once; full rebinds at (re)starts, dirty-cone
  // updates for the single-variable pattern moves below. Cost values are
  // bit-identical to branchDistance, so both engines walk the same points.
  // With options_.batch > 1 the neighborhood is scored through a B-lane
  // BatchDistanceTape instead: full-point evaluations in lockstep, scanned
  // in the exact candidate order of the sequential climber, so the accept
  // decisions (and therefore the whole search path) stay bit-identical.
  std::optional<DistanceTape> dt;
  std::optional<BatchDistanceTape> bdt;
  if (engine_ == Engine::kTape) {
    if (options_.batch > 1 && !vars.empty()) {
      bdt.emplace(goal, vars, options_.batch);
    } else {
      dt.emplace(goal, vars);
    }
  }
  const auto cost = [&](const std::vector<double>& p) {
    ++result.stats.samplesTried;
    if (bdt) {
      // All lanes get the point: lane 0 carries the answer, the rest keep
      // every (binding, lane) pair bound for later partial setPoint calls.
      for (int l = 0; l < bdt->lanes(); ++l) bdt->setPoint(l, p);
      bdt->run();
      return bdt->distance(0);
    }
    return dt ? dt->rebind(p) : branchDistance(goal, toEnv(p), true);
  };

  // Batched-scan work lists, hoisted out of the improvement loop.
  struct Candidate {
    std::size_t var;
    double val;
  };
  std::vector<Candidate> candidates;
  std::vector<double> scratch;

  randomize();
  double best = cost(point);

  while (!deadline.expired()) {
    if (best == 0.0) {
      result.model = toEnv(point);
      // Certify (distance and truth must agree, but belt-and-braces).
      if (expr::evaluate(goal, result.model).toBool()) {
        return finish(SolveStatus::kSat);
      }
      best = 1.0;  // fall through to keep searching
    }
    bool improved = false;
    if (bdt) {
      // Batched neighborhood: every pattern move depends only on the
      // fixed current point, so the full candidate list is known up
      // front, in exactly the order the sequential loops below visit it.
      candidates.clear();
      for (std::size_t i = 0; i < vars.size(); ++i) {
        const double width = vars[i].hi - vars[i].lo;
        for (double frac : {0.5, 0.1, 0.01, 0.001}) {
          double step = std::max(width * frac,
                                 vars[i].type == Type::kReal ? 1e-9 : 1.0);
          for (const double dir : {+1.0, -1.0}) {
            double v = std::clamp(point[i] + dir * step, vars[i].lo,
                                  vars[i].hi);
            if (vars[i].type != Type::kReal) v = std::round(v);
            candidates.push_back({i, v});
          }
        }
      }
      const auto B = static_cast<std::size_t>(bdt->lanes());
      std::size_t ci = 0;
      while (ci < candidates.size() && !improved && !deadline.expired()) {
        const std::size_t n = std::min(B, candidates.size() - ci);
        for (std::size_t l = 0; l < n; ++l) {
          scratch = point;
          scratch[candidates[ci + l].var] = candidates[ci + l].val;
          bdt->setPoint(static_cast<int>(l), scratch);
        }
        // Lanes past n keep their previous full-point bindings. The scan
        // below only consumes distances through `c < best`, which is
        // exactly the contract runBounded's early-exit masks preserve:
        // masked lanes report +inf and fail the test the same way their
        // true (>= best) distance would, so the accept order — and the
        // whole search path — matches bdt->run().
        bdt->runBounded(best);
        // Scan in candidate order and accept the first improvement —
        // the same decision the one-at-a-time climber makes. Trailing
        // lanes of an accepting chunk were evaluated speculatively and
        // are not counted, so samplesTried matches the sequential count.
        for (std::size_t l = 0; l < n; ++l) {
          ++result.stats.samplesTried;
          const double c = bdt->distance(static_cast<int>(l));
          if (c < best) {
            best = c;
            point[candidates[ci + l].var] = candidates[ci + l].val;
            improved = true;
            break;
          }
        }
        ci += n;
      }
    } else {
      for (std::size_t i = 0; i < vars.size() && !deadline.expired(); ++i) {
        const double width = vars[i].hi - vars[i].lo;
        // Pattern moves with geometrically shrinking steps.
        for (double frac : {0.5, 0.1, 0.01, 0.001}) {
          double step = std::max(width * frac,
                                 vars[i].type == Type::kReal ? 1e-9 : 1.0);
          for (const double dir : {+1.0, -1.0}) {
            auto candidate = point;
            candidate[i] = std::clamp(candidate[i] + dir * step, vars[i].lo,
                                      vars[i].hi);
            if (vars[i].type != Type::kReal) {
              candidate[i] = std::round(candidate[i]);
            }
            double c;
            if (dt) {
              // Single-coordinate move: dirty-cone re-evaluation only.
              ++result.stats.samplesTried;
              c = dt->update(i, candidate[i]);
            } else {
              c = cost(candidate);
            }
            if (c < best) {
              best = c;
              point = std::move(candidate);
              improved = true;
              break;
            }
            // Rejected: restore the tape to the current point (the revert
            // replays the same cone; it is not a scored sample).
            if (dt) (void)dt->update(i, point[i]);
          }
          if (improved) break;
        }
        if (improved) break;
      }
    }
    if (!improved) {
      // Stagnation: random restart.
      randomize();
      best = cost(point);
    }
  }
  return finish(SolveStatus::kUnknown);
}

SolveResult solveWith(SolverKind kind, const ExprPtr& goal,
                      const std::vector<VarInfo>& vars,
                      const SolveOptions& options) {
  switch (kind) {
    case SolverKind::kBox: {
      BoxSolver s(options);
      return s.solve(goal, vars);
    }
    case SolverKind::kLocalSearch: {
      LocalSearchSolver s(options);
      return s.solve(goal, vars);
    }
    case SolverKind::kPortfolio: {
      // Box first (fast SAT/UNSAT on the common cases), then spend the
      // same budget again on search if the box engine gave up.
      SolveOptions half = options;
      half.timeBudgetMillis = std::max<std::int64_t>(
          1, options.timeBudgetMillis / 2);
      BoxSolver box(half);
      auto res = box.solve(goal, vars);
      if (res.status != SolveStatus::kUnknown) return res;
      SolveOptions rest = options;
      rest.timeBudgetMillis = half.timeBudgetMillis;
      LocalSearchSolver search(rest);
      auto res2 = search.solve(goal, vars);
      res2.stats.boxesProcessed += res.stats.boxesProcessed;
      res2.stats.samplesTried += res.stats.samplesTried;
      return res2;
    }
  }
  BoxSolver s(options);
  return s.solve(goal, vars);
}

}  // namespace stcg::solver
