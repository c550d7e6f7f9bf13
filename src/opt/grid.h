// Dense grid search with iterative zoom refinement.
//
// Grid search is the cross-validation oracle for the smarter solvers: it is
// slow but cannot be fooled by local minima at the sampled resolution.
// `grid_refine_min` repeatedly shrinks the box around the incumbent
// (factor `zoom` per round), giving ~machine-precision optima on smooth
// 1-2 D problems at modest cost.
//
// Both entry points exist in two oracle flavours:
//
//   scalar (`Objective`)      — the reference implementation: one oracle
//                               call per lattice point;
//   batched (`BatchObjective`) — the fast path: lattice points are packed
//                               into contiguous blocks and each block is
//                               one oracle call, with scratch buffers
//                               reused across blocks and zoom rounds.
//
// The two flavours visit the same lattice in the same order with the same
// tie-breaking, so for oracles satisfying the batch contract (opt/batch.h)
// they return bit-identical x/value/evaluations — asserted by
// tests/opt_batch_test.cpp.  Zoom rounds seed the pass with the inherited
// incumbent: the refined lattice is snapped to contain the incumbent point
// exactly, and its known value is reused instead of re-calling the oracle
// on it.
//
// The batched `grid_refine_min` can also hand back its first round's
// values in lattice order, and `one_basin` reads the shape of such a
// lattice: the descent pipeline skips its 1-D multistart cross-check when
// the first round saw a single basin (core/game_framework.cpp, DESIGN.md
// §2).
#pragma once

#include <vector>

#include "opt/batch.h"
#include "opt/bounds.h"
#include "opt/types.h"

namespace edb::opt {

struct GridOptions {
  int points_per_dim = 33;  // samples per axis per round
  int rounds = 8;           // zoom refinement rounds
  double zoom = 0.2;        // box shrink factor per round
};

// Single-pass dense search over `box`.
VectorResult grid_min(const Objective& f, const Box& box,
                      int points_per_dim = 101);
VectorResult grid_min(const BatchObjective& f, const Box& box,
                      int points_per_dim = 101);

// Multi-round zooming search.  The batched flavour writes round 0's
// values, one per lattice point in lattice order, to `first_round` when it
// is non-null; the search itself is the same either way.
VectorResult grid_refine_min(const Objective& f, const Box& box,
                             const GridOptions& opts = {});
VectorResult grid_refine_min(const BatchObjective& f, const Box& box,
                             const GridOptions& opts = {},
                             std::vector<double>* first_round = nullptr);

// True when a 1-D lattice of values has one basin: its finite values form
// one contiguous run that falls strictly to a single minimum and then
// rises strictly (either side may be empty, so an edge minimum counts).
// No finite value, a second run, a second local minimum or any tie
// between neighbours makes it false.
bool one_basin(const std::vector<double>& values);

}  // namespace edb::opt
