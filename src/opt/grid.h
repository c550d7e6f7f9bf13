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
//   scalar (`Objective`)   — the reference implementation: one oracle call
//                            per lattice point;
//   batched (`BlockOracle`) — the fast path: lattice points go to the
//                            oracle in contiguous blocks, one call per
//                            block.  In 1-D a block is a slice of the
//                            round's axis itself; in n-D it is one chunk of
//                            the lattice written row-major into a scratch
//                            buffer.
//
// The two flavours visit the same lattice in the same order with the same
// tie-breaking, so for oracles satisfying the batch contract (opt/batch.h)
// they return bit-identical x/value/evaluations — asserted by
// tests/opt_batch_test.cpp.  Zoom rounds seed the pass with the inherited
// incumbent: the refined lattice is snapped to contain the incumbent point
// exactly, and its known value is reused instead of re-calling the oracle
// on it.  The scalar pass finds the incumbent by comparing every point's
// bits; the batched pass knows its rows by index (the axis indices that
// hold its coordinates) and leaves them out of its blocks.
//
// A `GridScratch` holds everything a batched search writes besides its
// result: round bounds and axes, the incumbent's rows and one block's
// points and values.  A caller that runs many searches on one thread
// passes the same scratch to each, and once its buffers have grown no
// zoom round allocates.
//
// The batched `grid_refine_min` can also hand back its first round's
// values in lattice order, and `one_basin` reads the shape of such a
// lattice: the descent pipeline skips its 1-D multistart cross-check when
// the first round saw a single basin (core/game_framework.cpp, DESIGN.md
// §2).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include "opt/batch.h"
#include "opt/bounds.h"
#include "opt/lattice.h"
#include "opt/types.h"
#include "util/math.h"

namespace edb::opt {

struct GridOptions {
  int points_per_dim = 33;  // samples per axis per round
  int rounds = 8;           // zoom refinement rounds
  double zoom = 0.2;        // box shrink factor per round
};

// Buffers one grid search writes, reused by the next search given the
// same scratch.  One scratch serves one thread at a time.
struct GridScratch {
  std::vector<double> lo, hi;             // the round's box
  std::vector<std::vector<double>> axes;  // the round's lattice axes
  // Lattice rows (ascending) holding the inherited incumbent, and the
  // buffer their list is built in.
  std::vector<std::size_t> seed_rows, spare_rows;
  std::vector<std::size_t> idx;  // odometer over the axes (n-D blocks)
  std::vector<double> coords;    // one n-D chunk of lattice rows
  std::vector<double> evalxs;    // a chunk's rows minus the incumbent's
  std::vector<double> values;    // one value per evaluated row
};

// Single-pass dense search over `box`.
VectorResult grid_min(const Objective& f, const Box& box,
                      int points_per_dim = 101);
template <BlockOracle F>
VectorResult grid_min(const F& f, const Box& box, int points_per_dim = 101);

// Multi-round zooming search.  The batched flavour writes round 0's
// values, one per lattice point in lattice order, to `first_round` when it
// is non-null; the search itself is the same either way.
VectorResult grid_refine_min(const Objective& f, const Box& box,
                             const GridOptions& opts = {});
template <BlockOracle F>
VectorResult grid_refine_min(const F& f, const Box& box,
                             const GridOptions& opts, GridScratch& scratch,
                             std::vector<double>* first_round = nullptr);
template <BlockOracle F>
VectorResult grid_refine_min(const F& f, const Box& box,
                             const GridOptions& opts = {},
                             std::vector<double>* first_round = nullptr) {
  GridScratch scratch;
  return grid_refine_min(f, box, opts, scratch, first_round);
}

// True when a 1-D lattice of values has one basin: its finite values form
// one contiguous run that falls strictly to a single minimum and then
// rises strictly (either side may be empty, so an edge minimum counts).
// No finite value, a second run, a second local minimum or any tie
// between neighbours makes it false.
bool one_basin(const std::vector<double>& values);

// ---- implementation of the templates above ------------------------------

namespace internal {

inline constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();

// One pass's minimum: its value and lattice row (kNoRow when no point
// beat +inf).  Ties keep the earliest row.
struct PassBest {
  double value = kInf;
  std::size_t row = kNoRow;
};

// Sets round 0's box.
void first_round_box(GridScratch& s, const Box& box);

// Builds the round's axes over [s.lo, s.hi] with `per_dim` points each.
// Given an incumbent `x`, snaps the axes onto it and lists in
// s.seed_rows the rows whose point is bit-identical to it; otherwise
// empties that list.
void build_round(GridScratch& s, int per_dim, const std::vector<double>* x);

// Shrinks s.lo/s.hi around `x` by `zoom`, staying inside `box`.
void zoom_round_box(GridScratch& s, const Box& box,
                    const std::vector<double>& x, double zoom);

// The point of lattice row `row` of the round's axes, into `x`.
void row_point(const GridScratch& s, std::size_t row, std::vector<double>& x);

// Batched pass over the round's lattice (build_round): chunks of up to
// kBlockPoints rows in lattice order, one oracle call per chunk, the
// incumbent's rows left out of the call and given `seed_value`.  A chunk
// without such a row goes to the oracle as it lies (in 1-D, a slice of
// the axis); a chunk with one is compacted around it with two block
// copies.  The oracle's cost is charged to `cost`; `values_out`, when
// non-null, receives every row's value in lattice order.
template <BlockOracle F>
PassBest batched_pass(const F& f, GridScratch& s, double seed_value,
                      VectorResult& cost, std::vector<double>* values_out) {
  const std::size_t dim = s.axes.size();
  std::size_t n_rows = 1;
  for (const auto& a : s.axes) n_rows *= a.size();
  s.values.resize(kBlockPoints);
  if (dim > 1) {
    s.coords.resize(kBlockPoints * dim);
    s.idx.assign(dim, 0);
  }
  if (!s.seed_rows.empty()) s.evalxs.resize(kBlockPoints * dim);
  if (values_out) values_out->resize(n_rows);

  PassBest best;
  const std::size_t* seed = s.seed_rows.data();
  const std::size_t* const seed_end = seed + s.seed_rows.size();
  for (std::size_t off = 0; off < n_rows; off += kBlockPoints) {
    const std::size_t rows = std::min(kBlockPoints, n_rows - off);
    const std::size_t end = off + rows;
    const double* block;
    if (dim == 1) {
      block = s.axes[0].data() + off;
    } else {
      double* row = s.coords.data();
      for (std::size_t r = 0; r < rows; ++r, row += dim) {
        for (std::size_t i = 0; i < dim; ++i) row[i] = s.axes[i][s.idx[i]];
        advance(s.idx, s.axes);
      }
      block = s.coords.data();
    }

    // The incumbent's rows in this chunk: seed[0 .. n_seed).
    std::size_t n_seed = 0;
    while (seed + n_seed != seed_end && seed[n_seed] < end) ++n_seed;
    const double* evalxs = block;
    if (n_seed > 0) {
      double* dst = s.evalxs.data();
      std::size_t from = off;
      for (std::size_t k = 0; k <= n_seed; ++k) {
        const std::size_t to = k < n_seed ? seed[k] : end;
        std::memcpy(dst, block + (from - off) * dim,
                    (to - from) * dim * sizeof(double));
        dst += (to - from) * dim;
        from = to + 1;
      }
      evalxs = s.evalxs.data();
    }
    if (rows > n_seed) {
      call_oracle(f, PointBlock{evalxs, rows - n_seed, dim}, s.values.data(),
                  cost);
    }

    // Min-scan in lattice order (ties keep the earliest row, exactly like
    // the scalar pass).
    const double* v = s.values.data();
    for (std::size_t r = off; r < end; ++r) {
      double value;
      if (seed != seed_end && *seed == r) {
        value = seed_value;
        ++seed;
      } else {
        value = *v++;
      }
      if (values_out) (*values_out)[r] = value;
      if (value < best.value) {
        best.value = value;
        best.row = r;
      }
    }
  }
  return best;
}

// grid_min's driver: `pass(best)` runs one dense pass over `box`'s
// lattice and charges its oracle cost to `best`.
template <typename Pass>
VectorResult single_pass(const Pass& pass, const Box& box, int per_dim,
                         GridScratch& s) {
  EDB_ASSERT(per_dim >= 2, "grid needs >= 2 points per dimension");
  first_round_box(s, box);
  build_round(s, per_dim, nullptr);
  VectorResult best;
  const PassBest r = pass(best);
  best.value = r.value;
  if (r.row != kNoRow) row_point(s, r.row, best.x);
  best.converged = std::isfinite(best.value);
  return best;
}

// Zoom-refinement driver: `pass(seed_value, best)` runs one dense pass
// over the round build_round set up and charges its oracle cost to
// `best`.  Each round seeds the pass with the previous round's incumbent
// (snapped onto the refined lattice), so the incumbent is carried by
// value instead of being re-evaluated, and every round's oracle calls are
// counted even when the round fails to improve.
template <typename Pass>
VectorResult refine_rounds(const Pass& pass, const Box& box,
                           const GridOptions& opts, GridScratch& s) {
  EDB_ASSERT(opts.points_per_dim >= 3, "refinement needs >= 3 points");
  EDB_ASSERT(opts.zoom > 0.0 && opts.zoom < 1.0, "zoom must be in (0,1)");

  VectorResult best;
  best.value = kInf;
  first_round_box(s, box);
  for (int round = 0; round < opts.rounds; ++round) {
    // Every round after the first inherits a finite incumbent.
    build_round(s, opts.points_per_dim, round > 0 ? &best.x : nullptr);
    const PassBest r = pass(best.value, best);
    if (r.value <= best.value) {
      best.value = r.value;
      if (r.row == kNoRow) {
        best.x.clear();
      } else {
        row_point(s, r.row, best.x);
      }
    }
    if (best.x.empty() || !std::isfinite(best.value)) break;
    zoom_round_box(s, box, best.x, opts.zoom);
  }
  best.converged = std::isfinite(best.value);
  return best;
}

}  // namespace internal

template <BlockOracle F>
VectorResult grid_min(const F& f, const Box& box, int points_per_dim) {
  GridScratch s;
  return internal::single_pass(
      [&](VectorResult& cost) {
        return internal::batched_pass(f, s, 0.0, cost, nullptr);
      },
      box, points_per_dim, s);
}

template <BlockOracle F>
VectorResult grid_refine_min(const F& f, const Box& box,
                             const GridOptions& opts, GridScratch& scratch,
                             std::vector<double>* first_round) {
  if (first_round) first_round->clear();
  return internal::refine_rounds(
      [&](double seed_value, VectorResult& cost) {
        const internal::PassBest r =
            internal::batched_pass(f, scratch, seed_value, cost, first_round);
        first_round = nullptr;  // only round 0 is handed back
        return r;
      },
      box, opts, scratch);
}

}  // namespace edb::opt
