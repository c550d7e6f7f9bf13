#include "core/sweep.h"

#include <algorithm>

#include "core/engine.h"
#include "util/math.h"

namespace edb::core {

const char* sweep_kind_name(SweepKind kind) {
  switch (kind) {
    case SweepKind::kLmax: return "Lmax";
    case SweepKind::kBudget: return "Ebudget";
  }
  return "?";
}

std::size_t SweepResult::feasible_count() const {
  return static_cast<std::size_t>(
      std::count_if(cells.begin(), cells.end(),
                    [](const SweepCell& c) { return c.feasible(); }));
}

std::vector<std::size_t> SweepResult::saturated_tail(double tol) const {
  std::vector<std::size_t> tail;
  const SweepCell* anchor = nullptr;
  for (std::size_t i = cells.size(); i-- > 0;) {
    if (!cells[i].feasible()) break;
    if (!anchor) {
      anchor = &cells[i];
      tail.push_back(i);
      continue;
    }
    const auto& a = anchor->outcome->nbs;
    const auto& b = cells[i].outcome->nbs;
    if (rel_diff(a.energy, b.energy) < tol &&
        rel_diff(a.latency, b.latency) < tol) {
      tail.push_back(i);
    } else {
      break;
    }
  }
  std::reverse(tail.begin(), tail.end());
  // A "cluster" needs at least two coinciding cells.
  if (tail.size() < 2) tail.clear();
  return tail;
}

SweepResult run_sweep(const mac::AnalyticMacModel& model,
                      AppRequirements base, SweepKind kind,
                      const std::vector<double>& values) {
  // The sequential reference: the width-1 fan.
  ScenarioEngine engine(EngineOptions{.threads = 1, .parallel = false});
  return engine.run_sweep(SweepJob{&model, base, kind, values});
}

const std::vector<double>& paper_sweep_values(SweepKind kind) {
  static const std::vector<double> lmax = {1, 2, 3, 4, 5, 6};
  static const std::vector<double> budget = {0.01, 0.02, 0.03,
                                             0.04, 0.05, 0.06};
  return kind == SweepKind::kLmax ? lmax : budget;
}

SweepResult paper_fig1_sweep(const mac::AnalyticMacModel& model,
                             AppRequirements base) {
  return run_sweep(model, base, SweepKind::kLmax,
                   paper_sweep_values(SweepKind::kLmax));
}

SweepResult paper_fig2_sweep(const mac::AnalyticMacModel& model,
                             AppRequirements base) {
  return run_sweep(model, base, SweepKind::kBudget,
                   paper_sweep_values(SweepKind::kBudget));
}

}  // namespace edb::core
