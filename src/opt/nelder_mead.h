// Nelder-Mead downhill simplex with box projection.
//
// Derivative-free N-dimensional local minimiser.  Simplex vertices are
// projected onto the box after every geometric operation, which is the
// standard practical treatment of bound constraints for this method.
// Restarted from multiple deterministic seeds by the penalty solver to
// mitigate local minima.
#pragma once

#include "opt/bounds.h"
#include "opt/types.h"

namespace edb::opt {

// At most 2,000 iterations; converged when the simplex values spread
// less than 1e-13 and its diameter is below 1e-12.  The first simplex
// steps 0.1 of each box width from x0.
VectorResult nelder_mead_min(const Objective& f, const Box& box,
                             std::vector<double> x0);

}  // namespace edb::opt
