// BDCA-style boosted line-search descent on a block oracle.
//
// The smart stage of the solve pipeline (DESIGN.md §2): where the dense
// grid pays for resolution with lattice points, this solver pays a few
// finite-difference stencils and line-search probes per iteration and
// rides the smoothness of the E(X)/L(X)/margin surfaces straight into the
// basin.  The shape follows the Boosted DC Algorithm (Aragón Artacho et
// al., PAPERS.md): a descent direction, Armijo backtracking line search,
// then a *boost* step that extends along the just-accepted step direction
// while it keeps improving — the extrapolation that gives BDCA its
// faster-than-DCA convergence on smooth problems.  The direction is
// diagonally preconditioned for free: the central-difference stencil that
// produces the gradient also yields a per-axis second derivative, so on
// separable near-quadratic surfaces (the paper kernels near their optima)
// the unit-step probe is a Newton step and the line search accepts it
// immediately instead of zigzagging down a steepest-descent valley.
//
// Constraints are the oracle's job: infeasible points must come back as
// +inf (the BatchFence in core does exactly this), and the solver treats
// +inf as "outside the basin" — stencil arms fall back to one-sided
// differences, line-search probes shrink past the fence.  Bound
// constraints are handled by clamping every probe onto the box.
//
// The tuning constants (seed lattice, multistarts, iteration budget,
// stencil, line search, boost) are fixed in descent.cpp and listed in
// DESIGN.md §2; the production pipeline runs exactly one setting.
//
// Determinism: seeding (`bdca_multistart_min`) ranks the pooled seeds by
// (value, lexicographic x), greedily drops near-duplicates (L-inf
// separation below 0.04 box widths), and descends from the first two
// survivors; the winner is again selected by (value, lexicographic x).
// The result is bit-stable under any permutation of `extra_seeds` —
// asserted by tests/opt_descent_test.cpp.
#pragma once

#include "opt/batch.h"
#include "opt/bounds.h"
#include "opt/types.h"

namespace edb::opt {

// One descent from `x0` (clamped onto the box).  Returns the best point
// found with full cost accounting (evaluations/blocks/oracle_ns);
// `converged` is false iff every probed point was infeasible (+inf).
VectorResult bdca_descend(const BatchObjective& f, const Box& box,
                          std::vector<double> x0);

// Deterministic multistart: one batched pass over a 17-per-axis seed
// lattice pooled with the caller's `extra_seeds` (clamped onto the box;
// wrong-dimension seeds are ignored), ranked/deduped as described above,
// one `bdca_descend` per survivor.
VectorResult bdca_multistart_min(
    const BatchObjective& f, const Box& box,
    const std::vector<std::vector<double>>& extra_seeds = {});

}  // namespace edb::opt
