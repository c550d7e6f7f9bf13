#include "opt/nelder_mead.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"
#include "util/math.h"

namespace edb::opt {
namespace {

constexpr int kMaxIterations = 2000;
constexpr double kFTol = 1e-13;       // simplex value spread at convergence
constexpr double kXTol = 1e-12;       // simplex diameter at convergence
constexpr double kInitialStep = 0.1;  // first simplex size, box widths

}  // namespace

VectorResult nelder_mead_min(const Objective& f, const Box& box,
                             std::vector<double> x0) {
  const std::size_t n = box.dim();
  EDB_ASSERT(x0.size() == n, "nelder_mead: start point dimension mismatch");
  x0 = box.clamp(std::move(x0));

  // Standard coefficients.
  constexpr double kReflect = 1.0;
  constexpr double kExpand = 2.0;
  constexpr double kContract = 0.5;
  constexpr double kShrink = 0.5;

  struct Vertex {
    std::vector<double> x;
    double value;
  };

  int evals = 0;
  auto eval = [&](const std::vector<double>& x) {
    ++evals;
    return f(x);
  };

  // Initial simplex: x0 plus one displaced vertex per axis.
  std::vector<Vertex> simplex;
  simplex.reserve(n + 1);
  simplex.push_back({x0, eval(x0)});
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> v = x0;
    double step = kInitialStep * box.width(i);
    if (v[i] + step > box.hi(i)) step = -step;
    v[i] = clamp(v[i] + step, box.lo(i), box.hi(i));
    if (v[i] == x0[i]) v[i] = clamp(x0[i] + 1e-9 * box.width(i), box.lo(i),
                                    box.hi(i));
    simplex.push_back({v, eval(v)});
  }

  auto by_value = [](const Vertex& a, const Vertex& b) {
    return a.value < b.value;
  };

  // Iteration scratch, reused across iterations (the inner loop runs for
  // thousands of iterations per solve; per-iteration vector allocations
  // would dominate the 1-2 D arithmetic).  Values and evaluation order
  // are unchanged — only the storage is hoisted.
  std::vector<double> centroid(n), xr(n), xe(n), xc(n);
  auto clamp_into = [&box, n](std::vector<double>& x) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = clamp(x[i], box.lo(i), box.hi(i));
    }
  };

  bool converged = false;
  for (int it = 0; it < kMaxIterations; ++it) {
    std::sort(simplex.begin(), simplex.end(), by_value);

    // Convergence: value spread and simplex diameter.
    const double spread =
        std::abs(simplex.back().value - simplex.front().value);
    double diameter = 0;
    for (std::size_t i = 0; i < n; ++i) {
      double lo = simplex[0].x[i], hi = simplex[0].x[i];
      for (const auto& v : simplex) {
        lo = std::min(lo, v.x[i]);
        hi = std::max(hi, v.x[i]);
      }
      diameter = std::max(diameter, hi - lo);
    }
    if (spread < kFTol && diameter < kXTol) {
      converged = true;
      break;
    }

    // Centroid of all but the worst vertex.
    centroid.assign(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < n; ++i) centroid[i] += simplex[v].x[i];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto affine = [&](double coef, std::vector<double>& x) {
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = centroid[i] + coef * (centroid[i] - simplex.back().x[i]);
      }
      clamp_into(x);
    };

    affine(kReflect, xr);
    const double fr = eval(xr);

    if (fr < simplex.front().value) {
      affine(kExpand, xe);
      const double fe = eval(xe);
      // Copy-assign into the existing vertex storage (no allocation).
      simplex.back().x = (fe < fr) ? xe : xr;
      simplex.back().value = (fe < fr) ? fe : fr;
    } else if (fr < simplex[n - 1].value) {
      simplex.back().x = xr;
      simplex.back().value = fr;
    } else {
      // Contract (outside if the reflection improved on the worst).
      const bool outside = fr < simplex.back().value;
      const auto& worst = outside ? xr : simplex.back().x;
      for (std::size_t i = 0; i < n; ++i) {
        xc[i] = centroid[i] + kContract * (worst[i] - centroid[i]);
      }
      clamp_into(xc);
      const double fc = eval(xc);
      if (fc < std::min(fr, simplex.back().value)) {
        simplex.back().x = xc;
        simplex.back().value = fc;
      } else {
        // Shrink toward the best vertex.
        for (std::size_t v = 1; v <= n; ++v) {
          for (std::size_t i = 0; i < n; ++i) {
            simplex[v].x[i] = simplex[0].x[i] +
                              kShrink * (simplex[v].x[i] - simplex[0].x[i]);
          }
          clamp_into(simplex[v].x);
          simplex[v].value = eval(simplex[v].x);
        }
      }
    }
  }

  std::sort(simplex.begin(), simplex.end(), by_value);
  VectorResult out;
  out.x = simplex.front().x;
  out.value = simplex.front().value;
  out.evaluations = evals;
  out.converged = converged;
  return out;
}

}  // namespace edb::opt
