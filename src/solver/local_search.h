// Search-based solver: hill climbing on the classic branch-distance
// objective (Korel / Tracey), the staple of search-based software testing.
//
// This is the "more constraint solvers" direction of the paper's future
// work. It complements the box solver: it cannot prove UNSAT, but it
// excels at nonlinear numeric goals where interval contraction is weak
// (products, sums of squares) because the distance function gives the
// search a gradient toward satisfaction.
//
// Cost of a boolean expression under an assignment (want = true):
//   a == b   -> |a - b|
//   a != b   -> 0 if a != b else 1
//   a <  b   -> 0 if a < b else (a - b) + eps
//   a && b   -> cost(a) + cost(b)
//   a || b   -> min(cost(a), cost(b))
//   !a       -> cost of a with flipped polarity
//   ite(c,t,e) (bool) -> cost((c && t) || (!c && e))
// Zero cost certifies satisfaction (verified by concrete evaluation).
#pragma once

#include "solver/solver.h"

namespace stcg::solver {

class LocalSearchSolver {
 public:
  /// Cost engine. kTape (default) scores candidates through an
  /// incremental DistanceTape (dirty-cone re-evaluation per mutated
  /// variable); kTree walks branchDistance's recursion each time and is
  /// kept as the oracle. Both engines produce bit-identical cost
  /// sequences, so the search visits the same points and returns the
  /// same result.
  enum class Engine { kTape, kTree };

  explicit LocalSearchSolver(SolveOptions options = {},
                             Engine engine = Engine::kTape)
      : options_(options), engine_(engine) {}

  /// Find an assignment making `goal` true, or report UNKNOWN — local
  /// search can never prove UNSAT.
  [[nodiscard]] SolveResult solve(const expr::ExprPtr& goal,
                                  const std::vector<expr::VarInfo>& vars);

 private:
  SolveOptions options_;
  Engine engine_ = Engine::kTape;
};

/// Branch distance of `goal` (toward `want`) under `env`; 0 iff satisfied.
[[nodiscard]] double branchDistance(const expr::ExprPtr& goal,
                                    const expr::Env& env, bool want);

/// Which engine a query runs on.
enum class SolverKind {
  kBox,          // interval branch-and-prune (can prove UNSAT)
  kLocalSearch,  // branch-distance hill climbing (SAT-only)
  kPortfolio,    // box first, then local search on UNKNOWN
};

[[nodiscard]] const char* solverKindName(SolverKind k);

/// Dispatch a query to the chosen engine.
[[nodiscard]] SolveResult solveWith(SolverKind kind,
                                    const expr::ExprPtr& goal,
                                    const std::vector<expr::VarInfo>& vars,
                                    const SolveOptions& options);

}  // namespace stcg::solver
