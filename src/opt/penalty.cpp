#include "opt/penalty.h"

#include <algorithm>
#include <cmath>

#include "opt/nelder_mead.h"
#include "util/math.h"
#include "util/rng.h"

namespace edb::opt {
namespace {

// Penalty schedule: rho = kRhoInitial * kRhoGrowth^round for kRounds
// rounds (final rho 1e9), kMultistarts deterministic seeds per round.
constexpr double kRhoInitial = 10.0;
constexpr double kRhoGrowth = 10.0;
constexpr int kRounds = 9;
constexpr int kMultistarts = 6;
// Largest constraint violation still accepted as feasible.
constexpr double kFeasibilityTol = 1e-7;

double worst_violation(const std::vector<Constraint>& slacks,
                       const std::vector<double>& x) {
  double worst = 0.0;
  for (const auto& s : slacks) worst = std::max(worst, -s(x));
  return worst;
}

}  // namespace

ConstrainedResult constrained_min(const Objective& f,
                                  const std::vector<Constraint>& slacks,
                                  const Box& box) {
  int evals = 0;

  // Deterministic multistart seeds: the midpoint, then fixed-seed uniform
  // samples.
  std::vector<std::vector<double>> seeds;
  seeds.push_back(box.midpoint());
  Rng rng(0xedb0427ULL);
  for (int i = 1; i < kMultistarts; ++i) seeds.push_back(box.sample(rng));

  ConstrainedResult best;
  best.value = kInf;
  best.worst_violation = kInf;

  double rho = kRhoInitial;
  std::vector<double> incumbent;

  for (int round = 0; round < kRounds; ++round, rho *= kRhoGrowth) {
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
      VectorResult r = nelder_mead_min(penalised, box, s0);
      evals += r.evaluations;
      if (r.value < round_best.value) round_best = r;
    }
    if (round_best.x.empty()) continue;
    incumbent = round_best.x;

    const double viol = worst_violation(slacks, round_best.x);
    const double val = f(round_best.x);

    // Prefer feasible points; among feasible, lower objective wins; among
    // infeasible, lower violation wins.
    const bool cand_feas = viol <= kFeasibilityTol;
    const bool best_feas = best.worst_violation <= kFeasibilityTol;
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
                  best.worst_violation <= kFeasibilityTol;
  return best;
}

}  // namespace edb::opt
