// Compiled-layer lint checks: semantic hazards and unreachable coverage
// goals over the lowered expression DAGs, evaluated against the interval
// state invariant from analysis/reachability.
//
// Hazard checks walk every distinct DAG node reachable from the model's
// expression roots (outputs, next-state functions, decision guards,
// objectives), so shared subexpressions are inspected once and reported
// under the first root that reaches them. Unreachability uses the same
// three-layer proof as dead-branch pre-verification (interval evaluation,
// HC4 contraction, solver refutation) via analysis::proveConstraintDead.

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/interval_tape.h"
#include "expr/builder.h"
#include "interval/forward.h"
#include "interval/interval.h"
#include "lint/lint.h"

namespace stcg::lint {

namespace {

using compile::CompiledModel;
using interval::Interval;

/// One expression root with the model location it belongs to.
struct Root {
  expr::ExprPtr e;
  std::string location;
};

std::vector<Root> collectRoots(const CompiledModel& cm) {
  std::vector<Root> roots;
  for (const auto& [name, e] : cm.outputs) {
    roots.push_back({e, "output '" + name + "'"});
  }
  for (const auto& sv : cm.states) {
    roots.push_back({sv.next, "state '" + sv.name + "'"});
  }
  for (const auto& d : cm.decisions) {
    roots.push_back({d.activation, "decision '" + d.name + "'"});
    for (std::size_t a = 0; a < d.armConds.size(); ++a) {
      roots.push_back({d.armConds[a], "decision '" + d.name + "':" +
                                          d.armLabels[a]});
    }
  }
  for (const auto& obj : cm.objectives) {
    roots.push_back({obj.cond, "objective '" + obj.name + "'"});
  }
  return roots;
}

/// Division/modulo and array-index hazards over every distinct DAG node.
void runHazardChecks(const CompiledModel& cm,
                     const analysis::StateInvariant& inv,
                     DiagnosticSink& sink) {
  interval::ForwardEvaluator eval(inv.env);
  std::unordered_set<const expr::Expr*> visited;
  // Several distinct nodes often carry the same hazard (e.g. one scan
  // index feeding eight slot reads); report each rendered finding once.
  std::unordered_set<std::string> emitted;
  const auto reportOnce = [&](Severity sev, const char* check,
                              const std::string& location,
                              const std::string& message) {
    if (emitted.insert(std::string(check) + "|" + location + "|" + message)
            .second) {
      sink.report(sev, check, location, message);
    }
  };
  // Iterative DFS: bench DAGs are shallow, but seeded/adversarial models
  // need not be.
  std::vector<const expr::Expr*> stack;

  const auto checkNode = [&](const expr::Expr* e,
                             const std::string& location) {
    if (e->op == expr::Op::kDiv || e->op == expr::Op::kMod) {
      // Re-wrap the denominator so the interval evaluator can take it
      // (shared_ptr aliasing keeps the node alive without copying).
      const expr::ExprPtr denom = e->args[1];
      const Interval d = eval.evalScalar(denom);
      if (d.isPoint() && d.lo() == 0.0) {
        reportOnce(Severity::kWarning, "div-by-zero", location,
                    std::string(e->op == expr::Op::kDiv ? "division"
                                                        : "modulo") +
                        " by a constant zero denominator (guarded "
                        "semantics yield 0)");
      } else if (d.containsZero()) {
        reportOnce(Severity::kWarning, "div-by-zero", location,
                    std::string(e->op == expr::Op::kDiv ? "division"
                                                        : "modulo") +
                        " denominator " + d.toString() +
                        " may be zero under reachable state (guarded "
                        "semantics yield 0)");
      }
    } else if (e->op == expr::Op::kSelect || e->op == expr::Op::kStore) {
      const int n = e->args[0]->arraySize;
      if (n > 0) {
        const Interval idx = eval.evalScalar(e->args[1]).integralHull();
        if (!idx.isEmpty() && (idx.lo() < 0 || idx.hi() > n - 1)) {
          reportOnce(Severity::kWarning, "array-bounds", location,
                      "index " + idx.toString() +
                          " may fall outside [0, " + std::to_string(n - 1) +
                          "] (clamped at evaluation)");
        }
      }
    }
  };

  for (const auto& root : collectRoots(cm)) {
    stack.push_back(root.e.get());
    while (!stack.empty()) {
      const expr::Expr* e = stack.back();
      stack.pop_back();
      if (!visited.insert(e).second) continue;
      checkNode(e, root.location);
      for (const auto& arg : e->args) stack.push_back(arg.get());
    }
  }
}

/// Guards that folded to a constant: the construct's branching is
/// vestigial (one arm always taken). Chart transitions are exempt —
/// unconditional transitions legitimately carry a constant-true guard.
void runConstantGuardChecks(const CompiledModel& cm, DiagnosticSink& sink) {
  for (const auto& d : cm.decisions) {
    if (d.kind == compile::DecisionKind::kChartTransition) continue;
    for (std::size_t c = 0; c < d.conditions.size(); ++c) {
      if (d.conditions[c]->op == expr::Op::kConst) {
        sink.report(Severity::kWarning, "constant-guard",
                    "decision '" + d.name + "'",
                    "condition " + std::to_string(c) +
                        " folds to the constant " +
                        d.conditions[c]->constVal.toString() +
                        "; one arm can never execute");
      }
    }
    // A decision whose conditions all folded away leaves constant arm
    // guards (e.g. a Switch on a constant control signal).
    if (d.conditions.empty()) {
      for (std::size_t a = 0; a < d.armConds.size(); ++a) {
        if (d.armConds[a]->op == expr::Op::kConst) {
          sink.report(Severity::kWarning, "constant-guard",
                      "decision '" + d.name + "':" + d.armLabels[a],
                      "arm guard folds to the constant " +
                          d.armConds[a]->constVal.toString());
          break;  // one finding per degenerate decision is enough
        }
      }
    }
  }
}

/// Shared engine behind runCompiledChecks and findUnreachableGoals:
/// prove branches, condition polarities and objectives unreachable and
/// assemble the coverage exclusions (with the MCDC propagation rule).
void collectUnreachable(const CompiledModel& cm,
                        const analysis::StateInvariant& inv,
                        const analysis::ReachabilityOptions& opt,
                        coverage::Exclusions& excl,
                        std::vector<std::string>* labels) {
  const auto label = [&](std::string s) {
    if (labels != nullptr) labels->push_back(std::move(s));
  };

  // Batch the interval layer: every constraint is judged under the same
  // invariant, so one CSE-shared tape pass yields all layer-(1) verdicts
  // (branches, then condition-polarity conjunctions, then objectives, in
  // the loop order below); only inconclusive ones escalate to HC4/solver.
  std::vector<expr::ExprPtr> constraints;
  for (const auto& br : cm.branches) constraints.push_back(br.pathConstraint);
  for (const auto& d : cm.decisions) {
    for (const auto& c : d.conditions) {
      constraints.push_back(expr::andE(d.activation, c));
      constraints.push_back(expr::andE(d.activation, expr::notE(c)));
    }
  }
  for (const auto& obj : cm.objectives) {
    constraints.push_back(expr::andE(obj.activation, obj.cond));
  }
  const auto verdicts = analysis::intervalVerdicts(constraints, inv.env);
  std::size_t vi = 0;
  const auto dead = [&]() {
    const bool d = analysis::proveConstraintDeadFrom(
        cm, inv, constraints[vi], verdicts[vi], opt);
    ++vi;
    return d;
  };

  // Branches. Track dead arms per decision for the MCDC rule below.
  std::unordered_map<int, std::unordered_set<int>> deadArms;
  for (const auto& br : cm.branches) {
    if (dead()) {
      excl.branches.push_back(br.id);
      deadArms[br.decision].insert(br.arm);
      const auto& d = cm.decisions[static_cast<std::size_t>(br.decision)];
      label("branch " + d.name + ":" + br.label);
    }
  }

  // Condition polarities, observed only while the decision is active.
  std::unordered_map<int, std::unordered_set<int>> deadPolarities;
  for (const auto& d : cm.decisions) {
    for (std::size_t c = 0; c < d.conditions.size(); ++c) {
      for (const bool polarity : {true, false}) {
        if (!dead()) continue;
        excl.conditionSlots.push_back(
            {d.id, static_cast<int>(c), polarity});
        deadPolarities[d.id].insert(static_cast<int>(c));
        label("condition " + d.name + ":cond" + std::to_string(c) +
              (polarity ? "=T" : "=F"));
      }
    }
  }

  // MCDC: a condition's unique-cause obligation cannot be met when either
  // of its polarities is unreachable, or when either arm of its (boolean)
  // decision is — no outcome-flipping pair can exist.
  for (const auto& d : cm.decisions) {
    if (!d.isBooleanDecision() || d.conditions.empty()) continue;
    const auto armsIt = deadArms.find(d.id);
    const bool anyDeadArm = armsIt != deadArms.end();
    const auto polsIt = deadPolarities.find(d.id);
    const std::size_t nc = std::min<std::size_t>(d.conditions.size(), 64);
    for (std::size_t c = 0; c < nc; ++c) {
      const bool deadPolarity =
          polsIt != deadPolarities.end() &&
          polsIt->second.count(static_cast<int>(c)) > 0;
      if (anyDeadArm || deadPolarity) {
        excl.mcdcSlots.push_back({d.id, static_cast<int>(c)});
        label("mcdc " + d.name + ":cond" + std::to_string(c));
      }
    }
  }

  // Custom test objectives.
  for (const auto& obj : cm.objectives) {
    if (dead()) {
      excl.objectives.push_back(obj.id);
      label("objective " + obj.name);
    }
  }
}

}  // namespace

void runCompiledChecks(const CompiledModel& cm, const LintOptions& opt,
                       LintResult& out) {
  out.compiledChecksRan = true;
  runConstantGuardChecks(cm, out.sink);
  if (!opt.reachabilityChecks) return;

  const analysis::StateInvariant inv =
      analysis::computeStateInvariant(cm, opt.reach);
  runHazardChecks(cm, inv, out.sink);

  std::vector<std::string> labels;
  collectUnreachable(cm, inv, opt.reach, out.exclusions, &labels);
  out.exclusionLabels = labels;

  // Report unreachability findings off the assembled exclusions so the
  // diagnostics and the exclusions can never disagree.
  for (std::size_t i = 0; i < out.exclusions.branches.size(); ++i) {
    const auto& br =
        cm.branches[static_cast<std::size_t>(out.exclusions.branches[i])];
    const auto& d = cm.decisions[static_cast<std::size_t>(br.decision)];
    out.sink.report(Severity::kWarning, "unreachable-branch",
                    "decision '" + d.name + "':" + br.label,
                    "branch proven unreachable from every reachable state "
                    "(excluded from coverage denominators)");
  }
  for (const auto& slot : out.exclusions.conditionSlots) {
    const auto& d = cm.decisions[static_cast<std::size_t>(slot.decision)];
    out.sink.report(Severity::kNote, "unreachable-condition",
                    "decision '" + d.name + "':cond" +
                        std::to_string(slot.cond),
                    std::string("polarity ") +
                        (slot.polarity ? "true" : "false") +
                        " proven unobservable while the decision is "
                        "active");
  }
  for (const int objId : out.exclusions.objectives) {
    const auto& obj = cm.objectives[static_cast<std::size_t>(objId)];
    out.sink.report(Severity::kWarning, "unreachable-objective",
                    "objective '" + obj.name + "'",
                    "objective proven unsatisfiable (excluded from "
                    "coverage denominators)");
  }
}

coverage::Exclusions findUnreachableGoals(
    const CompiledModel& cm, std::vector<std::string>* labels,
    const analysis::ReachabilityOptions& opt) {
  coverage::Exclusions excl;
  const analysis::StateInvariant inv = analysis::computeStateInvariant(cm, opt);
  collectUnreachable(cm, inv, opt, excl, labels);
  return excl;
}

}  // namespace stcg::lint
