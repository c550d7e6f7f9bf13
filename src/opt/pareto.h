// Pareto frontier tracing for two cost objectives over a parameter box.
//
// Samples the box on a dense grid, keeps feasible points, and filters to
// the non-dominated set (minimising both objectives).  The result is the
// protocol's E-L trade-off curve the paper's figures draw, sorted by the
// first objective.
#pragma once

#include <vector>

#include "opt/batch.h"
#include "opt/bounds.h"
#include "opt/types.h"

namespace edb::opt {

struct ParetoPoint {
  std::vector<double> x;
  double f1 = 0;
  double f2 = 0;
};

// True iff a dominates b for cost minimisation (<= in both, < in one).
bool dominates(const ParetoPoint& a, const ParetoPoint& b);

// Filters an arbitrary point set to its non-dominated subset, sorted by f1.
std::vector<ParetoPoint> pareto_filter(std::vector<ParetoPoint> points);

// Traces the frontier of (f1, f2) over a `points_per_dim`-per-axis grid
// on `box`, skipping points where `feasible_slack` is not positive.
// `feasible_slack` may be null (all points kept).
std::vector<ParetoPoint> trace_frontier(const Objective& f1,
                                        const Objective& f2, const Box& box,
                                        const Constraint& feasible_slack,
                                        int points_per_dim);

// Block-oracle flavour of the same scan (opt/batch.h): the lattice is
// evaluated in contiguous blocks — feasibility first, then f1/f2 only on
// the feasible lanes — and yields the same point set in the same order as
// the scalar overload for oracles satisfying the batch contract.
std::vector<ParetoPoint> trace_frontier(const BatchObjective& f1,
                                        const BatchObjective& f2,
                                        const Box& box,
                                        const BatchConstraint& feasible_slack,
                                        int points_per_dim);

}  // namespace edb::opt
