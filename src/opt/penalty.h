// Constrained minimisation via exterior quadratic penalties.
//
// Solves   min f(x)  s.t.  s_j(x) >= 0 for all j,  x in box
// by minimising f(x) + rho * sum_j max(0, -s_j(x))^2 for an increasing
// penalty schedule rho.  Each unconstrained subproblem is attacked with
// Nelder-Mead from several deterministic multistart seeds (box midpoint,
// corners-ish latin points, and the previous round's incumbent).
//
// Constraint slacks should be scaled to O(1) (the MAC models' feasibility
// margins and the normalised budget slacks both are), so a final rho of
// 1e9 pushes violations below ~1e-5 of scale; the returned point is then
// re-checked and `feasible` reflects true feasibility.
//
// The one caller is core/game_framework.cpp's dual_solve: kGridVerify's
// stage 2 (the verifier the production pipeline is gated against), and
// kDescent's sliver path when the coarse scan found nothing feasible —
// for (P1)/(P2) only after the phase-I search found the cap reachable.  It no longer proves P1/P2 infeasibility in
// production (DESIGN.md §2).  This multistart is the only user of
// opt/nelder_mead.
#pragma once

#include "opt/bounds.h"
#include "opt/nelder_mead.h"
#include "opt/types.h"

namespace edb::opt {

struct PenaltyOptions {
  double rho_initial = 10.0;
  double rho_growth = 10.0;
  int rounds = 9;                 // final rho = initial * growth^(rounds-1)
  int multistarts = 6;            // deterministic seeds per round
  double feasibility_tol = 1e-7;  // max violation accepted as feasible
  NelderMeadOptions inner;
};

struct ConstrainedResult {
  std::vector<double> x;
  double value = 0;
  double worst_violation = 0;  // max_j max(0, -s_j(x)) at the solution
  int evaluations = 0;
  bool feasible = false;
};

// Returns the best point found, with its full evaluation count whether or
// not it is feasible: `feasible` is false when no point within
// feasibility_tol was located (worst_violation > tol everywhere tried).
ConstrainedResult constrained_min(
    const Objective& f, const std::vector<Constraint>& slacks, const Box& box,
    const PenaltyOptions& opts = {});

}  // namespace edb::opt
