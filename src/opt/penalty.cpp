#include "opt/penalty.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "opt/nelder_mead.h"
#include "util/math.h"
#include "util/rng.h"

namespace edb::opt {
namespace {

double worst_violation(const std::vector<Constraint>& slacks,
                       const std::vector<double>& x) {
  double worst = 0.0;
  for (const auto& s : slacks) worst = std::max(worst, -s(x));
  return worst;
}

}  // namespace

ConstrainedResult constrained_min(
    const Objective& f, const std::vector<Constraint>& slacks, const Box& box,
    const PenaltyOptions& opts) {
  int evals = 0;

  // Deterministic multistart seeds: caller-provided warm starts, then the
  // midpoint, then fixed-seed uniform samples.
  std::vector<std::vector<double>> seeds;
  for (const auto& s : opts.extra_seeds) {
    if (s.size() == box.dim()) seeds.push_back(box.clamp(s));
  }
  seeds.push_back(box.midpoint());
  Rng rng(0xedb0427ULL);
  for (int i = 1; i < opts.multistarts; ++i) seeds.push_back(box.sample(rng));

  // Dedup bit-identical seeds (coarse-grid ties, or a warm start landing
  // on the midpoint): each duplicate would burn an identical inner-solver
  // budget to reach the same point.  First occurrence wins, so the seed
  // order — and therefore the result — is unchanged.
  std::vector<std::vector<double>> unique_seeds;
  unique_seeds.reserve(seeds.size());
  for (auto& s : seeds) {
    bool seen = false;
    for (const auto& u : unique_seeds) {
      if (std::memcmp(s.data(), u.data(), s.size() * sizeof(double)) == 0) {
        seen = true;
        break;
      }
    }
    if (!seen) unique_seeds.push_back(std::move(s));
  }
  seeds = std::move(unique_seeds);

  ConstrainedResult best;
  best.value = kInf;
  best.worst_violation = kInf;

  double rho = opts.rho_initial;
  std::vector<double> incumbent;

  for (int round = 0; round < opts.rounds; ++round, rho *= opts.rho_growth) {
    Objective penalised = [&, rho](const std::vector<double>& x) {
      double p = 0.0;
      for (const auto& s : slacks) {
        const double v = std::max(0.0, -s(x));
        p += v * v;
      }
      return f(x) + rho * p;
    };

    std::vector<std::vector<double>> starts = seeds;
    if (!incumbent.empty()) starts.push_back(incumbent);

    VectorResult round_best;
    round_best.value = kInf;
    for (const auto& s0 : starts) {
      VectorResult r = nelder_mead_min(penalised, box, s0, opts.inner);
      evals += r.evaluations;
      if (r.value < round_best.value) round_best = r;
    }
    if (round_best.x.empty()) continue;
    incumbent = round_best.x;

    const double viol = worst_violation(slacks, round_best.x);
    const double val = f(round_best.x);

    // Prefer feasible points; among feasible, lower objective wins; among
    // infeasible, lower violation wins.
    const bool cand_feas = viol <= opts.feasibility_tol;
    const bool best_feas = best.worst_violation <= opts.feasibility_tol;
    const bool better = (cand_feas && !best_feas) ||
                        (cand_feas && best_feas && val < best.value) ||
                        (!cand_feas && !best_feas &&
                         viol < best.worst_violation);
    if (better) {
      best.x = round_best.x;
      best.value = val;
      best.worst_violation = viol;
    }
  }

  best.evaluations = evals;
  best.feasible = !best.x.empty() &&
                  best.worst_violation <= opts.feasibility_tol;
  return best;
}

}  // namespace edb::opt
