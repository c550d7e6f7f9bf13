#include "opt/grid.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "opt/lattice.h"
#include "util/error.h"
#include "util/math.h"

namespace edb::opt {
namespace {

using internal::advance;
using internal::kBlockPoints;
using internal::lattice_axes;

// The incumbent a zoom round inherits from the previous round: its exact
// lattice coordinates and already-known value.  A pass that encounters a
// lattice point bit-identical to `x` reuses `value` instead of re-calling
// the oracle (the oracle is deterministic, so the value is the same — only
// the call is saved).
struct Incumbent {
  const std::vector<double>* x = nullptr;
  double value = 0;
};

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// Snaps the axis point nearest to x[i] onto x[i] exactly (per dimension),
// so the refined lattice contains the inherited incumbent bit-for-bit and
// the pass can skip re-evaluating it.  The snap moves a point by at most
// half a lattice spacing and is skipped when it would break the strict
// monotonicity of the axis (degenerate, ulp-wide windows).
void snap_axes_to(std::vector<std::vector<double>>& axes,
                  const std::vector<double>& x) {
  for (std::size_t i = 0; i < axes.size(); ++i) {
    auto& a = axes[i];
    std::size_t k = 0;
    for (std::size_t j = 1; j < a.size(); ++j) {
      if (std::abs(a[j] - x[i]) < std::abs(a[k] - x[i])) k = j;
    }
    if (a[k] == x[i]) continue;
    const bool lo_ok = k == 0 || a[k - 1] < x[i];
    const bool hi_ok = k + 1 == a.size() || x[i] < a[k + 1];
    if (lo_ok && hi_ok) a[k] = x[i];
  }
}

// Scalar reference pass: iterates the full cartesian lattice via an
// odometer index vector, one oracle call per point.
VectorResult grid_pass(const Objective& f,
                       const std::vector<std::vector<double>>& axes,
                       const Incumbent* seed) {
  const std::size_t n = axes.size();
  std::vector<std::size_t> idx(n, 0);
  std::vector<double> x(n);
  VectorResult best;
  best.value = kInf;

  bool more = true;
  while (more) {
    for (std::size_t i = 0; i < n; ++i) x[i] = axes[i][idx[i]];
    double v;
    if (seed && bits_equal(x.data(), seed->x->data(), n)) {
      v = seed->value;  // inherited incumbent: value already known
    } else {
      v = f(x);
      ++best.evaluations;
    }
    if (v < best.value) {
      best.value = v;
      best.x = x;
    }
    more = advance(idx, axes);
  }
  best.converged = std::isfinite(best.value);
  return best;
}

// Scratch buffers for the batched pass, reused across blocks and zoom
// rounds so the hot loop performs no per-point allocations.
struct BatchScratch {
  std::vector<double> coords;  // chunk points in lattice order (row-major)
  std::vector<double> evalxs;  // same rows minus the inherited incumbent
  std::vector<double> values;  // one value per evaluated row
};

// Batched pass: identical lattice, iteration order and tie-breaking as the
// scalar pass, but points are packed into contiguous blocks and each block
// is one oracle call.  A lattice point bit-identical to the inherited
// incumbent is excluded from the block and its known value merged back in
// at its lattice position, so selection is exactly the scalar pass's.
// `values_out`, when non-null, receives every point's value in lattice
// order.
VectorResult grid_pass(const BatchObjective& f,
                       const std::vector<std::vector<double>>& axes,
                       const Incumbent* seed, BatchScratch& s,
                       std::vector<double>* values_out = nullptr) {
  const std::size_t dim = axes.size();
  std::vector<std::size_t> idx(dim, 0);
  VectorResult best;
  best.value = kInf;

  s.coords.resize(kBlockPoints * dim);
  s.evalxs.resize(kBlockPoints * dim);
  s.values.resize(kBlockPoints);

  bool more = true;
  while (more) {
    // Fill one chunk of lattice rows (and the compacted oracle block).
    std::size_t rows = 0;
    std::size_t eval_rows = 0;
    std::size_t seed_row = kBlockPoints;  // sentinel: no incumbent here
    while (more && rows < kBlockPoints) {
      double* row = s.coords.data() + rows * dim;
      for (std::size_t i = 0; i < dim; ++i) row[i] = axes[i][idx[i]];
      if (seed && bits_equal(row, seed->x->data(), dim)) {
        seed_row = rows;
      } else {
        std::memcpy(s.evalxs.data() + eval_rows * dim, row,
                    dim * sizeof(double));
        ++eval_rows;
      }
      ++rows;
      more = advance(idx, axes);
    }

    if (eval_rows > 0) {
      call_oracle(f, PointBlock{s.evalxs.data(), eval_rows, dim},
                  s.values.data(), best);
    }

    // Min-scan the chunk in lattice order (ties keep the earliest point,
    // exactly like the scalar pass).
    std::size_t j = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double v = r == seed_row ? seed->value : s.values[j++];
      if (values_out) values_out->push_back(v);
      if (v < best.value) {
        best.value = v;
        const double* row = s.coords.data() + r * dim;
        best.x.assign(row, row + dim);
      }
    }
  }
  best.converged = std::isfinite(best.value);
  return best;
}

// Shared zoom-refinement driver: `pass(axes, seed)` runs one dense pass
// over the current lattice.  Each round seeds the pass with the previous
// round's incumbent (snapped onto the refined lattice), so the incumbent
// is carried by value instead of being re-evaluated, and every round's
// oracle calls are counted even when the round fails to improve.
template <typename Pass>
VectorResult refine_loop(const Pass& pass, const Box& box,
                         const GridOptions& opts) {
  EDB_ASSERT(opts.points_per_dim >= 3, "refinement needs >= 3 points");
  EDB_ASSERT(opts.zoom > 0.0 && opts.zoom < 1.0, "zoom must be in (0,1)");

  Box current = box;
  VectorResult best;
  best.value = kInf;
  std::vector<double> seed_x;  // previous round's incumbent (empty: none)
  double seed_v = 0;

  for (int round = 0; round < opts.rounds; ++round) {
    auto axes = lattice_axes(current, opts.points_per_dim);
    Incumbent seed{&seed_x, seed_v};
    if (!seed_x.empty()) snap_axes_to(axes, seed_x);
    VectorResult r = pass(axes, seed_x.empty() ? nullptr : &seed);
    r.absorb_cost(best);
    if (r.value <= best.value) {
      best = std::move(r);
    } else {
      // Keep the incumbent but never drop the round's oracle cost.
      best.evaluations = r.evaluations;
      best.blocks = r.blocks;
      best.oracle_ns = r.oracle_ns;
    }

    if (best.x.empty() || !std::isfinite(best.value)) break;
    seed_x = best.x;
    seed_v = best.value;

    // Shrink around the incumbent, staying inside the original box.
    std::vector<double> lo(box.dim()), hi(box.dim());
    for (std::size_t i = 0; i < box.dim(); ++i) {
      const double half = 0.5 * opts.zoom * current.width(i);
      lo[i] = std::max(box.lo(i), best.x[i] - half);
      hi[i] = std::min(box.hi(i), best.x[i] + half);
      if (hi[i] - lo[i] < 1e-15) {  // degenerate: re-open a tiny window
        const double eps = 1e-12 * std::max(1.0, std::abs(best.x[i]));
        lo[i] = std::max(box.lo(i), best.x[i] - eps);
        hi[i] = std::min(box.hi(i), best.x[i] + eps);
        if (lo[i] >= hi[i]) {
          lo[i] = box.lo(i);
          hi[i] = box.hi(i);
        }
      }
    }
    current = Box(lo, hi);
  }
  best.converged = std::isfinite(best.value);
  return best;
}

}  // namespace

VectorResult grid_min(const Objective& f, const Box& box, int points_per_dim) {
  EDB_ASSERT(points_per_dim >= 2, "grid needs >= 2 points per dimension");
  return grid_pass(f, lattice_axes(box, points_per_dim), nullptr);
}

VectorResult grid_min(const BatchObjective& f, const Box& box,
                      int points_per_dim) {
  EDB_ASSERT(points_per_dim >= 2, "grid needs >= 2 points per dimension");
  BatchScratch scratch;
  return grid_pass(f, lattice_axes(box, points_per_dim), nullptr, scratch);
}

VectorResult grid_refine_min(const Objective& f, const Box& box,
                             const GridOptions& opts) {
  return refine_loop(
      [&f](const std::vector<std::vector<double>>& axes,
           const Incumbent* seed) { return grid_pass(f, axes, seed); },
      box, opts);
}

VectorResult grid_refine_min(const BatchObjective& f, const Box& box,
                             const GridOptions& opts,
                             std::vector<double>* first_round) {
  BatchScratch scratch;
  if (first_round) first_round->clear();
  return refine_loop(
      [&f, &scratch, &first_round](
          const std::vector<std::vector<double>>& axes,
          const Incumbent* seed) {
        auto r = grid_pass(f, axes, seed, scratch, first_round);
        first_round = nullptr;  // only round 0 is handed back
        return r;
      },
      box, opts);
}

bool one_basin(const std::vector<double>& values) {
  auto lo = std::find_if(values.begin(), values.end(),
                         [](double v) { return std::isfinite(v); });
  auto hi = std::find_if(values.rbegin(), values.rend(),
                         [](double v) { return std::isfinite(v); })
                .base();
  if (lo >= hi) return false;  // no finite value
  if (!std::all_of(lo, hi, [](double v) { return std::isfinite(v); })) {
    return false;  // a second finite run
  }
  auto it = lo + 1;
  while (it < hi && *it < it[-1]) ++it;  // strictly down to the minimum
  while (it < hi && *it > it[-1]) ++it;  // then strictly up
  return it == hi;
}

}  // namespace edb::opt
