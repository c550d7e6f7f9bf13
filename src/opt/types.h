// Common result types and function aliases for the solver suite.
#pragma once

#include <functional>
#include <vector>

namespace edb::opt {

// Scalar objective over an N-dimensional point.
using Objective = std::function<double(const std::vector<double>&)>;

// Inequality constraint expressed as a signed slack: s(x) >= 0 is feasible.
// (This matches mac::AnalyticMacModel::feasibility_margin.)
using Constraint = std::function<double(const std::vector<double>&)>;

struct VectorResult {
  std::vector<double> x;
  double value = 0;
  int evaluations = 0;   // scalar-equivalent oracle evaluations (points)
  int blocks = 0;        // block-oracle invocations (0 on scalar paths)
  double oracle_ns = 0;  // wall time spent inside the block oracle [ns]
  bool converged = false;

  // Folds another result's cost counters into this one (solver stages
  // accumulate evaluations across rounds and solver families).
  void absorb_cost(const VectorResult& o) {
    evaluations += o.evaluations;
    blocks += o.blocks;
    oracle_ns += o.oracle_ns;
  }
};

}  // namespace edb::opt
