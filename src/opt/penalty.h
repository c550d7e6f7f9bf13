// Constrained minimisation via exterior quadratic penalties.
//
// Solves   min f(x)  s.t.  s_j(x) >= 0 for all j,  x in box
// by minimising f(x) + rho * sum_j max(0, -s_j(x))^2 for an increasing
// penalty schedule rho.  Each unconstrained subproblem is attacked with
// Nelder-Mead from several deterministic multistart seeds (box midpoint,
// corners-ish latin points, and the previous round's incumbent).
//
// The schedule is fixed (penalty.cpp): rho = 10, 100, ..., 1e9 over nine
// rounds, six seeds per round.  Constraint slacks should be scaled to O(1)
// (the MAC models' feasibility margins and the normalised budget slacks
// both are), so the final rho pushes violations below ~1e-5 of scale; the
// returned point is then re-checked and `feasible` reflects true
// feasibility (worst violation at most 1e-7).
//
// The one caller is core/game_framework.cpp's dual_solve: kGridVerify's
// stage 2 (the verifier the production pipeline is gated against), and
// kDescent's sliver path when the coarse scan found nothing feasible —
// for (P1)/(P2) only after the phase-I search found the cap reachable.  It no longer proves P1/P2 infeasibility in
// production (DESIGN.md §2).  This multistart is the only user of
// opt/nelder_mead.
#pragma once

#include "opt/bounds.h"
#include "opt/types.h"

namespace edb::opt {

struct ConstrainedResult {
  std::vector<double> x;
  double value = 0;
  double worst_violation = 0;  // max_j max(0, -s_j(x)) at the solution
  int evaluations = 0;
  bool feasible = false;
};

// Returns the best point found, with its full evaluation count whether or
// not it is feasible: `feasible` is false when no point within the 1e-7
// tolerance was located (worst_violation above it everywhere tried).
ConstrainedResult constrained_min(const Objective& f,
                                  const std::vector<Constraint>& slacks,
                                  const Box& box);

}  // namespace edb::opt
