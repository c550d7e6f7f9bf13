#include "core/engine.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>

namespace edb::core {

ScenarioEngine::ScenarioEngine(EngineOptions opts)
    : opts_(opts), fan_(opts.parallel ? opts.threads : 1) {}

Expected<BargainingOutcome> ScenarioEngine::solve_one(
    const mac::AnalyticMacModel& model, const AppRequirements& req,
    double alpha, const SolveHints& hints,
    const SolveControl& control) const {
  EnergyDelayGame game(model, req);
  game.set_control(control);
  // solve_weighted(0.5, ...) is exactly solve(...), so the default alpha
  // keeps the historical path.
  return game.solve_weighted(alpha, hints);
}

SweepResult ScenarioEngine::sweep_skeleton(const SweepJob& job) const {
  EDB_ASSERT(job.model != nullptr, "sweep job needs a model");
  EDB_ASSERT(job.alpha > 0.0 && job.alpha < 1.0,
             "bargaining power must lie in (0, 1)");
  EDB_ASSERT(!job.values.empty(), "sweep needs at least one value");
  for (std::size_t i = 0; i < job.values.size(); ++i) {
    EDB_ASSERT(job.values[i] > 0, "sweep values must be positive");
    EDB_ASSERT(i == 0 || job.values[i] > job.values[i - 1],
               "sweep values must be ascending");
  }
  SweepResult result;
  result.protocol = std::string(job.model->name());
  result.kind = job.kind;
  result.base = job.base;
  result.cells.resize(job.values.size());
  for (std::size_t i = 0; i < job.values.size(); ++i) {
    result.cells[i].value = job.values[i];
  }
  return result;
}

// Warm-started evaluation of one whole sweep on the calling thread.
//
// P1- or P2-infeasible cells are the expensive degenerate case: that
// subproblem's coarse scan finds nothing, so the cold pipeline runs the
// full penalty multistart only to prove there is nothing to find.  (P3
// cells are cheap: solve_weighted certifies an empty bargaining set from
// the P1/P2 optima without running P4.)  Ascending sweep values only ever
// *relax* the binding requirement (a larger Lmax loosens P1, a larger
// Ebudget loosens P2; the protocol's own feasibility margin does not
// depend on the requirement at all), so cell feasibility is monotone
// along the sweep.  The chain exploits that: a
// binary search over the cells locates the feasibility frontier with
// O(log n) cold probes, everything below the frontier is marked infeasible
// without being solved (reasons derived from the protocol envelope, see
// below), and the warm chain runs from the frontier up.
// dual_solve makes warm and cold solves of the same cell agree bit-for-bit
// (see its path-independence contract), so the mix of probe outcomes and
// warm-chain outcomes is invisible in the results.
void ScenarioEngine::sweep_chain(const SweepJob& job,
                                 SweepResult& result) const {
  auto& cells = result.cells;
  const std::size_t n = cells.size();

  // A transiently failed probe (deadline, cancellation) carries no
  // feasibility verdict, so it must never steer the monotone frontier
  // logic — mislabelling live cells as envelope-infeasible would persist a
  // transient condition as a deterministic answer.
  bool transient = false;
  auto probe = [&](std::size_t j) {
    SolveHints cold;
    solve_cell(job, cells[j], cold);
    if (!cells[j].feasible() && is_transient(cells[j].infeasible_code)) {
      transient = true;
    }
    return cells[j].feasible();
  };

  // Find the feasibility frontier (smallest feasible index).
  std::size_t frontier = n;
  if (probe(0)) {
    frontier = 0;
  } else if (!transient && n > 1 && probe(n - 1)) {
    std::size_t lo = 0, hi = n - 1;
    while (!transient && hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (probe(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    frontier = hi;
  }

  if (transient) {
    // Frontier unknown: solve every untouched cell independently (cold
    // hints — no seed chain across cells of unknown feasibility).  Cells
    // that already failed transiently keep their verdict; re-solving under
    // the same control would fail identically.
    for (std::size_t j = 0; j < n; ++j) {
      if (cells[j].feasible() || !cells[j].infeasible_reason.empty()) {
        continue;
      }
      SolveHints cold;
      solve_cell(job, cells[j], cold);
    }
    return;
  }

  // Cells below the frontier are infeasible by monotonicity.  Probed cells
  // carry the solver's own reason; the unsolved ones get theirs derived
  // from the protocol envelope — two threshold comparisons replaying the
  // cold pipeline's P1 -> P2 -> P3 failure order, so the strings match a
  // cold sweep's without a solve per dead cell.  Feasibility slacks are
  // strict (margin > 0), hence the >= comparisons.
  std::optional<ProtocolEnvelope> env;
  for (std::size_t j = 0; j < frontier && j < n; ++j) {
    if (cells[j].feasible() || !cells[j].infeasible_reason.empty()) continue;
    if (!env) env = protocol_envelope(*job.model);
    AppRequirements req = job.base;
    (job.kind == SweepKind::kLmax ? req.l_max : req.e_budget) =
        cells[j].value;
    Error reason = env->l_min >= req.l_max
                       ? p1_infeasible_error(job.model->name())
                       : env->e_min >= req.e_budget
                             ? p2_infeasible_error(job.model->name())
                             : p3_infeasible_error(job.model->name());
    cells[j].infeasible_reason = reason.to_string();
    cells[j].infeasible_code = reason.code;
  }

  // Warm chain from the frontier.  Probed cells at or above the frontier
  // are feasible by construction (only below-frontier probes come back
  // infeasible), so they just refresh the seeds.
  SolveHints hints;
  for (std::size_t j = frontier; j < n; ++j) {
    if (cells[j].feasible()) {
      const auto& o = *cells[j].outcome;
      hints = SolveHints{o.p1.x, o.p2.x, o.nbs.x, /*trusted=*/true};
      continue;
    }
    solve_cell(job, cells[j], hints);
  }
}

void ScenarioEngine::solve_cell(const SweepJob& job, SweepCell& cell,
                                SolveHints& hints) const {
  AppRequirements req = job.base;
  if (job.kind == SweepKind::kLmax) {
    req.l_max = cell.value;
  } else {
    req.e_budget = cell.value;
  }
  auto outcome = solve_one(*job.model, req, job.alpha, hints, job.control);
  if (outcome.ok()) {
    if (opts_.warm_start) {
      hints = SolveHints{outcome->p1.x, outcome->p2.x, outcome->nbs.x,
                         /*trusted=*/true};
    }
    cell.outcome = std::move(outcome).take();
  } else {
    // Do not chain seeds across an infeasible gap — the next feasible
    // cell's optimum may sit far from the last agreement.
    hints = {};
    cell.infeasible_reason = outcome.error().to_string();
    cell.infeasible_code = outcome.error().code;
  }
}

std::vector<Expected<BargainingOutcome>> ScenarioEngine::solve_batch(
    const std::vector<SolveJob>& jobs) {
  std::vector<Expected<BargainingOutcome>> out(
      jobs.size(), Expected<BargainingOutcome>(
                       make_error(ErrorCode::kInternal, "not solved")));
  fan_.run(jobs.size(), [&](std::size_t i) {
    EDB_ASSERT(jobs[i].model != nullptr, "solve job needs a model");
    out[i] = solve_one(*jobs[i].model, jobs[i].req, jobs[i].alpha,
                       SolveHints{}, jobs[i].control);
  });
  return out;
}

SweepPlan plan_point_queries(const std::vector<PointQuery>& queries) {
  SweepPlan plan;
  plan.slots.resize(queries.size());

  // A group is one future sweep chain: same model, same budget, same
  // bargaining power, Lmax free.  Keys compare the exact bit patterns —
  // canonicalizing "nearly equal" requirements is the service key layer's
  // job (service/key.h), not the planner's.
  struct GroupKey {
    const mac::AnalyticMacModel* model;
    std::uint64_t budget_bits;
    std::uint64_t alpha_bits;
    // Controls must agree for queries to share a chain: a budget-bound
    // query must not inherit a neighbour's unbounded chain or vice versa.
    const std::atomic<bool>* cancel;
    long long eval_budget;
    bool operator==(const GroupKey&) const = default;
  };
  auto key_of = [](const PointQuery& q) {
    std::uint64_t b, a;
    std::memcpy(&b, &q.req.e_budget, sizeof b);
    std::memcpy(&a, &q.alpha, sizeof a);
    return GroupKey{q.model, b, a, q.control.cancel, q.control.eval_budget};
  };

  // First-appearance order keeps the plan deterministic in the input.
  std::vector<GroupKey> keys;
  std::vector<std::size_t> group_of(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EDB_ASSERT(queries[i].model != nullptr, "point query needs a model");
    const GroupKey k = key_of(queries[i]);
    std::size_t g = 0;
    while (g < keys.size() && !(keys[g] == k)) ++g;
    if (g == keys.size()) {
      keys.push_back(k);
      plan.jobs.push_back(SweepJob{queries[i].model, queries[i].req,
                                   SweepKind::kLmax, {},
                                   queries[i].alpha, queries[i].control});
    }
    group_of[i] = g;
    plan.jobs[g].values.push_back(queries[i].req.l_max);
  }

  for (auto& job : plan.jobs) {
    std::sort(job.values.begin(), job.values.end());
    job.values.erase(std::unique(job.values.begin(), job.values.end()),
                     job.values.end());
  }

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& values = plan.jobs[group_of[i]].values;
    const auto it = std::lower_bound(values.begin(), values.end(),
                                     queries[i].req.l_max);
    plan.slots[i] = SweepSlot{
        group_of[i],
        static_cast<std::size_t>(std::distance(values.begin(), it))};
  }
  return plan;
}

SweepResult ScenarioEngine::run_sweep(const SweepJob& job) {
  auto results = run_sweeps({job});
  return std::move(results.front());
}

std::vector<SweepResult> ScenarioEngine::run_sweeps(
    const std::vector<SweepJob>& jobs) {
  std::vector<SweepResult> results;
  results.reserve(jobs.size());
  for (const auto& job : jobs) results.push_back(sweep_skeleton(job));

  if (opts_.warm_start) {
    // One chained task per sweep: cell i+1 is seeded from cell i, so cells
    // of a sweep stay on one thread; sweeps fan across the pool.
    fan_.run(jobs.size(), [&](std::size_t i) {
      sweep_chain(jobs[i], results[i]);
    });
    return results;
  }

  // Cold cells are fully independent: flatten every cell of every sweep
  // into one task list so small sweep batches still fill the pool.
  std::vector<std::pair<std::size_t, std::size_t>> flat;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (std::size_t j = 0; j < results[i].cells.size(); ++j) {
      flat.emplace_back(i, j);
    }
  }
  fan_.run(flat.size(), [&](std::size_t k) {
    const auto [i, j] = flat[k];
    SolveHints hints;
    solve_cell(jobs[i], results[i].cells[j], hints);
  });
  return results;
}

}  // namespace edb::core
