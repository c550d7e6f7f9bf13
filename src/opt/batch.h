// Block oracles: objective/constraint evaluation over contiguous point
// blocks.
//
// The scalar `Objective` costs one `std::function` dispatch, one
// `std::vector` walk and (in the callers that build the point) one heap
// allocation *per evaluated point*.  The dense-scan solvers (opt/grid.h,
// opt/pareto.h) evaluate tens of thousands of lattice points per solve,
// which makes that per-point overhead the dominant cost of a cold solve.
// A block oracle amortises it: the solver hands a whole block of points
// over as one contiguous buffer and makes a single oracle call; the
// oracle writes one value per point into a caller-owned span.  The
// batched grid search takes any such callable as a template argument, so
// an oracle class's call inlines into the scan; `BatchObjective` is the
// type-erased form the descent and frontier solvers take.
//
// Contract: a batch oracle must be *bit-identical* to the scalar oracle
// it replaces — values[i] carries exactly the double the scalar call
// would have returned for point i, for every i, in any block chunking.
// The solvers rely on this to keep batched and scalar solves identical
// (DESIGN.md §2, tests/opt_batch_test.cpp).
#pragma once

#include <chrono>
#include <concepts>
#include <cstddef>
#include <functional>

#include "obs/trace.h"
#include "opt/types.h"

namespace edb::opt {

// A contiguous block of `n` points of dimension `dim`, packed row-major:
// point i occupies xs[i*dim .. (i+1)*dim).  The block does not own its
// storage; it is a view into the caller's buffer (a scratch block, or in
// 1-D a slice of the lattice axis itself).
struct PointBlock {
  const double* xs = nullptr;
  std::size_t n = 0;
  std::size_t dim = 0;

  const double* point(std::size_t i) const { return xs + i * dim; }
};

// Evaluates every point of a block: values[i] = f(point i), i in [0, n).
// `values` is caller-owned and holds at least n doubles.
template <typename F>
concept BlockOracle = std::invocable<const F&, const PointBlock&, double*>;

// The type-erased block oracle.
using BatchObjective = std::function<void(const PointBlock&, double* values)>;

// Same shape for constraint slacks (signed: > 0 is strictly feasible).
using BatchConstraint = BatchObjective;

// Runs one oracle block and charges it to `cost`: b.n evaluations, one
// block and, only while obs::Tracer::enabled() (the switch spans use),
// the call's wall time in oracle_ns.  Untraced runs skip the two clock
// reads and leave oracle_ns at 0.  Every block-driving solver calls its
// oracle through this.
template <BlockOracle F>
void call_oracle(const F& f, const PointBlock& b, double* values,
                 VectorResult& cost) {
  if (obs::Tracer::enabled()) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    f(b, values);
    cost.oracle_ns +=
        std::chrono::duration<double, std::nano>(clock::now() - t0).count();
  } else {
    f(b, values);
  }
  cost.evaluations += static_cast<int>(b.n);
  ++cost.blocks;
}

// Backward-compatibility adapter: wraps a scalar objective in a per-point
// loop.  One scratch vector is reused across points and calls, so the
// only per-point cost left is the scalar dispatch itself.
BatchObjective batch_from_scalar(Objective f);

}  // namespace edb::opt
