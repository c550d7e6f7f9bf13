#include "opt/descent.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/obs.h"
#include "opt/lattice.h"
#include "util/error.h"
#include "util/math.h"

namespace edb::opt {
namespace {

using internal::advance;
using internal::kBlockPoints;
using internal::lattice_axes;

// Seed pool (multistart entry point only): one batched pass over a
// kSeedLattice-per-axis lattice, pooled with the caller's extra seeds;
// descents start from the first kMultistarts survivors at least
// kSeedSeparation (L-inf, box widths) apart.
constexpr int kSeedLattice = 17;
constexpr std::size_t kMultistarts = 2;
constexpr double kSeedSeparation = 0.04;

// Per-descent iteration budget and stopping scales: stop when the step
// falls below kXTol box widths and the relative improvement below kFTol.
// Twelve iterations run the basin far below the polish window.
constexpr int kMaxIterations = 12;
constexpr double kXTol = 1e-9;
constexpr double kFTol = 1e-12;

// Finite-difference stencil and Armijo line search.  The unit-step probe
// is the diagonally-preconditioned (Newton) displacement on axes with
// usable positive curvature; kInitialStep only scales the gradient
// fallback on axes where the stencil saw no curvature (fence shadow,
// boundary pin, concave stretch).
constexpr double kGradStep = 2e-6;     // stencil half-width, axis fraction
constexpr double kArmijoC = 1e-4;      // sufficient-decrease slope fraction
constexpr double kBacktrack = 0.5;     // step shrink per rejected probe
constexpr int kMaxBacktracks = 16;
constexpr double kInitialStep = 0.25;  // fallback probe length, box widths

// Boost stage: extend along the accepted step while improving.
constexpr int kMaxBoosts = 6;
constexpr double kBoostGrow = 2.0;

// Charges every block-oracle call to the owning result's cost counters
// (call_oracle, opt/batch.h; the batched grid pass does the same).
class Oracle {
 public:
  Oracle(const BatchObjective& f, VectorResult& cost) : f_(f), cost_(cost) {}

  void eval(const double* xs, std::size_t n, std::size_t dim, double* out) {
    if (n == 0) return;
    call_oracle(f_, PointBlock{xs, n, dim}, out, cost_);
  }

  double eval1(const std::vector<double>& x) {
    double v;
    eval(x.data(), 1, x.size(), &v);
    return v;
  }

 private:
  const BatchObjective& f_;
  VectorResult& cost_;
};

bool lex_less(const std::vector<double>& a, const std::vector<double>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// (value, lexicographic x) total order used for seed ranking and winner
// selection — bit-stable under any permutation of equal candidates.
bool ranked_less(double va, const std::vector<double>& xa, double vb,
                 const std::vector<double>& xb) {
  if (va != vb) return va < vb;
  return lex_less(xa, xb);
}

// Largest per-axis move of b relative to a, in box widths.
double step_fraction(const Box& box, const std::vector<double>& a,
                     const std::vector<double>& b) {
  double frac = 0.0;
  for (std::size_t i = 0; i < box.dim(); ++i) {
    const double w = box.width(i);
    if (w > 0.0) frac = std::max(frac, std::abs(b[i] - a[i]) / w);
  }
  return frac;
}

// Central finite-difference gradient with box-aware arms: both arms are
// clamped onto the box and evaluated in one oracle block; an arm whose
// value comes back non-finite (behind the constraint fence) is dropped in
// favour of the one-sided difference through x itself.  When both arms
// are usable the same stencil yields the per-axis second derivative
// (`curv`, NaN when unavailable) that preconditions the descent step.
// Returns false when no axis produced a usable finite slope (stationary
// as far as the stencil can tell).
bool fd_gradient(Oracle& oracle, const Box& box, const std::vector<double>& x,
                 double fx, double h_frac, std::vector<double>& g,
                 std::vector<double>& curv, std::vector<double>& arm_xs,
                 std::vector<double>& arm_vs) {
  const std::size_t dim = box.dim();
  arm_xs.assign(2 * dim * dim, 0.0);
  arm_vs.assign(2 * dim, 0.0);

  for (std::size_t i = 0; i < dim; ++i) {
    double* plus = arm_xs.data() + (2 * i) * dim;
    double* minus = arm_xs.data() + (2 * i + 1) * dim;
    std::memcpy(plus, x.data(), dim * sizeof(double));
    std::memcpy(minus, x.data(), dim * sizeof(double));
    const double h = h_frac * box.width(i);
    plus[i] = std::min(box.hi(i), x[i] + h);
    minus[i] = std::max(box.lo(i), x[i] - h);
  }
  oracle.eval(arm_xs.data(), 2 * dim, dim, arm_vs.data());

  bool any = false;
  for (std::size_t i = 0; i < dim; ++i) {
    const double xp = arm_xs[(2 * i) * dim + i];
    const double xm = arm_xs[(2 * i + 1) * dim + i];
    const double hp = xp - x[i];
    const double hm = x[i] - xm;
    const double vp = arm_vs[2 * i];
    const double vm = arm_vs[2 * i + 1];
    const bool plus_ok = hp > 0.0 && std::isfinite(vp);
    const bool minus_ok = hm > 0.0 && std::isfinite(vm);
    curv[i] = kNaN;
    if (plus_ok && minus_ok) {
      g[i] = (vp - vm) / (hp + hm);
      // Unequal-arm second difference (equal arms reduce to the classic
      // (vp - 2 fx + vm) / h^2).
      curv[i] =
          2.0 * (hm * vp + hp * vm - (hp + hm) * fx) / (hp * hm * (hp + hm));
    } else if (plus_ok) {
      g[i] = (vp - fx) / hp;
    } else if (minus_ok) {
      g[i] = (fx - vm) / hm;
    } else {
      g[i] = 0.0;
    }
    if (g[i] != 0.0 && std::isfinite(g[i])) {
      any = true;
    } else {
      g[i] = 0.0;
    }
  }
  return any;
}

// One boosted projected-gradient descent from a point with a known value.
VectorResult descend_impl(const BatchObjective& f, const Box& box,
                          std::vector<double> x0, double f0, bool have_f0) {
  EDB_SPAN("opt.descent");
  EDB_COUNT("opt.descent.descends", 1);
  const std::size_t dim = box.dim();
  VectorResult r;
  Oracle oracle(f, r);

  std::vector<double> x = box.clamp(std::move(x0));
  double fx = have_f0 ? f0 : oracle.eval1(x);
  r.x = x;
  r.value = fx;
  if (!std::isfinite(fx)) return r;  // converged stays false

  std::vector<double> g(dim), curv(dim), d(dim), trial(dim), s(dim), cand(dim);
  std::vector<double> arm_xs, arm_vs;

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    if (!fd_gradient(oracle, box, x, fx, kGradStep, g, curv, arm_xs,
                     arm_vs)) {
      break;  // stationary at stencil resolution
    }

    // Unit-step displacement d: the diagonal-Newton move g/curv on axes
    // whose stencil saw usable positive curvature, a steepest-descent
    // move scaled to kInitialStep box widths on the rest.  One shared
    // gradient scale keeps the fallback axes' direction (not just the
    // step length) equal to -g.
    double t_grad = kInf;
    for (std::size_t i = 0; i < dim; ++i) {
      if (g[i] != 0.0 && !(std::isfinite(curv[i]) && curv[i] > 0.0)) {
        t_grad =
            std::min(t_grad, kInitialStep * box.width(i) / std::abs(g[i]));
      }
    }
    bool any_move = false;
    for (std::size_t i = 0; i < dim; ++i) {
      if (g[i] == 0.0) {
        d[i] = 0.0;
      } else if (std::isfinite(curv[i]) && curv[i] > 0.0) {
        const double w = box.width(i);
        d[i] = std::clamp(g[i] / curv[i], -w, w);
      } else {
        d[i] = g[i] * t_grad;
      }
      any_move = any_move || (d[i] != 0.0 && std::isfinite(d[i]));
    }
    if (!any_move) break;

    // Armijo backtracking on the projected probe x - t*d, t from 1 (the
    // preconditioned step): accept when the decrease beats kArmijoC/t
    // times the squared realised (post-clamp) step.
    bool accepted = false;
    double ft = kInf;
    double t = 1.0;
    for (int bt = 0; bt <= kMaxBacktracks; ++bt, t *= kBacktrack) {
      double step2 = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        trial[i] = std::clamp(x[i] - t * d[i], box.lo(i), box.hi(i));
        const double di = trial[i] - x[i];
        step2 += di * di;
      }
      if (step2 == 0.0) continue;  // fully projected out at this length
      ft = oracle.eval1(trial);
      if (std::isfinite(ft) && ft <= fx - (kArmijoC / t) * step2) {
        accepted = true;
        break;
      }
    }
    if (!accepted) break;  // no improving step at this resolution

    // Boost stage (the "B" of BDCA): keep extending along the accepted
    // step s = trial - x while the extension keeps strictly improving.
    for (std::size_t i = 0; i < dim; ++i) s[i] = trial[i] - x[i];
    double beta = 1.0;
    for (int b = 0; b < kMaxBoosts; ++b, beta *= kBoostGrow) {
      bool moved = false;
      for (std::size_t i = 0; i < dim; ++i) {
        cand[i] = std::clamp(trial[i] + beta * s[i], box.lo(i), box.hi(i));
        moved = moved || cand[i] != trial[i];
      }
      if (!moved) break;  // projection pinned the extension
      const double fc = oracle.eval1(cand);
      if (!(std::isfinite(fc) && fc < ft)) break;
      trial = cand;
      ft = fc;
    }

    const double frac = step_fraction(box, x, trial);
    const double impr = (fx - ft) / std::max(1.0, std::abs(fx));
    x = trial;
    fx = ft;
    if (frac < kXTol && impr < kFTol) break;
  }

  r.x = std::move(x);
  r.value = fx;
  r.converged = std::isfinite(fx);
  return r;
}

}  // namespace

VectorResult bdca_descend(const BatchObjective& f, const Box& box,
                          std::vector<double> x0) {
  EDB_ASSERT(x0.size() == box.dim(), "bdca_descend: x0/box dim mismatch");
  return descend_impl(f, box, std::move(x0), 0.0, /*have_f0=*/false);
}

VectorResult bdca_multistart_min(
    const BatchObjective& f, const Box& box,
    const std::vector<std::vector<double>>& extra_seeds) {
  EDB_SPAN("opt.descent.multistart");
  const std::size_t dim = box.dim();
  VectorResult total;
  total.value = kInf;
  Oracle oracle(f, total);

  // Seed pool: the lattice pass plus every caller seed (clamped), all
  // evaluated through the block oracle in kBlockPoints chunks.
  std::vector<double> coords;
  if (dim > 0) {
    const auto axes = lattice_axes(box, kSeedLattice);
    std::vector<std::size_t> idx(dim, 0);
    bool more = true;
    while (more) {
      for (std::size_t i = 0; i < dim; ++i) coords.push_back(axes[i][idx[i]]);
      more = advance(idx, axes);
    }
  }
  for (const auto& s : extra_seeds) {
    if (s.size() != dim) continue;
    const auto c = box.clamp(s);
    coords.insert(coords.end(), c.begin(), c.end());
  }

  struct Seed {
    std::vector<double> x;
    double value;
  };
  std::vector<Seed> pool;
  const std::size_t n_points = dim > 0 ? coords.size() / dim : 0;
  std::vector<double> values(n_points);
  for (std::size_t off = 0; off < n_points; off += kBlockPoints) {
    const std::size_t n = std::min(kBlockPoints, n_points - off);
    oracle.eval(coords.data() + off * dim, n, dim, values.data() + off);
  }
  pool.reserve(n_points);
  for (std::size_t p = 0; p < n_points; ++p) {
    const double* row = coords.data() + p * dim;
    const double v = values[p];
    pool.push_back({std::vector<double>(row, row + dim),
                    std::isfinite(v) ? v : kInf});
  }

  std::sort(pool.begin(), pool.end(), [](const Seed& a, const Seed& b) {
    return ranked_less(a.value, a.x, b.value, b.x);
  });

  // Greedy separation dedup over the ranked pool: a seed within
  // kSeedSeparation (L-inf, box widths) of an already-chosen one would
  // descend into the same basin and burn an identical budget.
  std::vector<const Seed*> chosen;
  for (const Seed& s : pool) {
    if (!std::isfinite(s.value)) break;  // sorted: only +inf remains
    bool separated = true;
    for (const Seed* c : chosen) {
      if (step_fraction(box, s.x, c->x) < kSeedSeparation) {
        separated = false;
        break;
      }
    }
    if (separated) chosen.push_back(&s);
    if (chosen.size() >= kMultistarts) break;
  }

  if (chosen.empty()) {
    // Every pooled point is behind the fence; surface the ranked front so
    // the caller can tell "no finite seed" from "empty box".
    if (!pool.empty()) {
      total.x = pool.front().x;
      total.value = pool.front().value;
    }
    return total;
  }

  EDB_COUNT("opt.descent.seeds", n_points);
  EDB_COUNT("opt.descent.starts", chosen.size());
  VectorResult best;
  best.value = kInf;
  for (const Seed* s : chosen) {
    VectorResult r =
        descend_impl(f, box, s->x, s->value, /*have_f0=*/true);
    total.absorb_cost(r);
    if (best.x.empty() ||
        ranked_less(r.value, r.x, best.value, best.x)) {
      best.x = std::move(r.x);
      best.value = r.value;
      best.converged = r.converged;
    }
  }

  total.x = std::move(best.x);
  total.value = best.value;
  total.converged = best.converged;
  return total;
}

}  // namespace edb::opt
