#include "opt/grid.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/math.h"

namespace edb::opt {
namespace internal {
namespace {

// Snaps the axis point nearest to x onto x exactly, so the refined
// lattice contains the inherited incumbent bit-for-bit and the pass can
// skip re-evaluating it.  The snap moves a point by at most half a
// lattice spacing and is skipped when it would break the strict
// monotonicity of the axis (degenerate, ulp-wide windows).  Returns the
// nearest point's index.
std::size_t snap_axis_to(std::vector<double>& a, double x) {
  std::size_t k = 0;
  for (std::size_t j = 1; j < a.size(); ++j) {
    if (std::abs(a[j] - x) < std::abs(a[k] - x)) k = j;
  }
  if (a[k] != x) {
    const bool lo_ok = k == 0 || a[k - 1] < x;
    const bool hi_ok = k + 1 == a.size() || x < a[k + 1];
    if (lo_ok && hi_ok) a[k] = x;
  }
  return k;
}

// Snaps every axis onto x and lists in s.seed_rows, ascending, every
// lattice row whose point is bit-identical to x: the product of each
// axis's indices holding x[i] bit-for-bit.  That is one row after a
// successful snap, several on an ulp-wide axis whose points repeat, none
// where a snap was refused.  An axis never decreases, so its points equal
// to x[i] run on from the nearest one, the first of them.  The odometer's
// row number is sum(idx[i] * stride[i]) with axis 0 fastest, so extending
// the list axis by axis keeps it ascending.
void snap_and_list_seed_rows(GridScratch& s, const std::vector<double>& x) {
  s.seed_rows.assign(1, 0);
  std::size_t stride = 1;
  for (std::size_t i = 0; i < s.axes.size(); ++i) {
    auto& a = s.axes[i];
    s.spare_rows.clear();
    for (std::size_t j = snap_axis_to(a, x[i]); j < a.size() && a[j] == x[i];
         ++j) {
      if (!bits_equal(&a[j], &x[i], 1)) continue;
      for (std::size_t row : s.seed_rows) {
        s.spare_rows.push_back(row + j * stride);
      }
    }
    s.seed_rows.swap(s.spare_rows);
    stride *= a.size();
  }
}

// Scalar reference pass: iterates the full cartesian lattice via an
// odometer index vector, one oracle call per point, and recognises the
// inherited incumbent `seed` by comparing every point's bits.
PassBest scalar_pass(const Objective& f, const GridScratch& s,
                     const std::vector<double>* seed, double seed_value,
                     VectorResult& cost) {
  const std::size_t n = s.axes.size();
  std::vector<std::size_t> idx(n, 0);
  std::vector<double> x(n);
  PassBest best;
  std::size_t row = 0;
  bool more = true;
  while (more) {
    for (std::size_t i = 0; i < n; ++i) x[i] = s.axes[i][idx[i]];
    double v;
    if (seed && bits_equal(x.data(), seed->data(), n)) {
      v = seed_value;  // inherited incumbent: value already known
    } else {
      v = f(x);
      ++cost.evaluations;
    }
    if (v < best.value) {
      best.value = v;
      best.row = row;
    }
    ++row;
    more = advance(idx, s.axes);
  }
  return best;
}

}  // namespace

void first_round_box(GridScratch& s, const Box& box) {
  s.lo.assign(box.lower().begin(), box.lower().end());
  s.hi.assign(box.upper().begin(), box.upper().end());
}

void build_round(GridScratch& s, int per_dim, const std::vector<double>* x) {
  s.axes.resize(s.lo.size());
  for (std::size_t i = 0; i < s.axes.size(); ++i) {
    linspace(s.lo[i], s.hi[i], per_dim, s.axes[i]);
  }
  s.seed_rows.clear();
  if (x != nullptr) snap_and_list_seed_rows(s, *x);
}

void zoom_round_box(GridScratch& s, const Box& box,
                    const std::vector<double>& x, double zoom) {
  for (std::size_t i = 0; i < box.dim(); ++i) {
    const double half = 0.5 * zoom * (s.hi[i] - s.lo[i]);
    double lo = std::max(box.lo(i), x[i] - half);
    double hi = std::min(box.hi(i), x[i] + half);
    if (hi - lo < 1e-15) {  // degenerate: re-open a tiny window
      const double eps = 1e-12 * std::max(1.0, std::abs(x[i]));
      lo = std::max(box.lo(i), x[i] - eps);
      hi = std::min(box.hi(i), x[i] + eps);
      if (lo >= hi) {
        lo = box.lo(i);
        hi = box.hi(i);
      }
    }
    s.lo[i] = lo;
    s.hi[i] = hi;
  }
}

void row_point(const GridScratch& s, std::size_t row, std::vector<double>& x) {
  x.resize(s.axes.size());
  for (std::size_t i = 0; i < s.axes.size(); ++i) {
    const std::size_t n = s.axes[i].size();
    x[i] = s.axes[i][row % n];
    row /= n;
  }
}

}  // namespace internal

VectorResult grid_min(const Objective& f, const Box& box, int points_per_dim) {
  GridScratch s;
  return internal::single_pass(
      [&](VectorResult& cost) {
        return internal::scalar_pass(f, s, nullptr, 0.0, cost);
      },
      box, points_per_dim, s);
}

VectorResult grid_refine_min(const Objective& f, const Box& box,
                             const GridOptions& opts) {
  GridScratch s;
  return internal::refine_rounds(
      [&](double seed_value, VectorResult& best) {
        return internal::scalar_pass(f, s, best.x.empty() ? nullptr : &best.x,
                                     seed_value, best);
      },
      box, opts, s);
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
