#include "core/engine.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

namespace edb::core {

namespace {

Expected<BargainingOutcome> solve_one(const mac::AnalyticMacModel& model,
                                      const AppRequirements& req, double alpha,
                                      const SolveControl& control) {
  EnergyDelayGame game(model, req);
  game.set_control(control);
  // solve_weighted(0.5) is exactly solve(), so the default alpha keeps
  // the paper's symmetric path.
  return game.solve_weighted(alpha);
}

SweepResult sweep_skeleton(const SweepJob& job) {
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

void solve_cell(const SweepJob& job, SweepCell& cell) {
  AppRequirements req = job.base;
  if (job.kind == SweepKind::kLmax) {
    req.l_max = cell.value;
  } else {
    req.e_budget = cell.value;
  }
  auto outcome = solve_one(*job.model, req, job.alpha, job.control);
  if (outcome.ok()) {
    cell.outcome = std::move(outcome).take();
  } else {
    cell.infeasible_reason = outcome.error().to_string();
    cell.infeasible_code = outcome.error().code;
  }
}

}  // namespace

ScenarioEngine::ScenarioEngine(EngineOptions opts)
    : opts_(opts), fan_(opts.parallel ? opts.threads : 1) {}

std::vector<Expected<BargainingOutcome>> ScenarioEngine::solve_batch(
    const std::vector<SolveJob>& jobs) {
  std::vector<Expected<BargainingOutcome>> out(
      jobs.size(), Expected<BargainingOutcome>(
                       make_error(ErrorCode::kInternal, "not solved")));
  fan_.run(jobs.size(), [&](std::size_t i) {
    EDB_ASSERT(jobs[i].model != nullptr, "solve job needs a model");
    out[i] = solve_one(*jobs[i].model, jobs[i].req, jobs[i].alpha,
                       jobs[i].control);
  });
  return out;
}

SweepPlan plan_point_queries(const std::vector<PointQuery>& queries) {
  SweepPlan plan;
  plan.slots.resize(queries.size());

  // A group is one future sweep: same model, same budget, same bargaining
  // power, Lmax free.  Keys compare the exact bit patterns —
  // canonicalizing "nearly equal" requirements is the service key layer's
  // job (service/key.h), not the planner's.
  struct GroupKey {
    const mac::AnalyticMacModel* model;
    std::uint64_t budget_bits;
    std::uint64_t alpha_bits;
    // Controls must agree for queries to share a sweep: a sweep carries
    // one control for all of its cells.
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

  // Cells are fully independent: flatten every cell of every sweep into
  // one task list so small sweep batches still fill the fan.
  std::vector<std::pair<std::size_t, std::size_t>> flat;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (std::size_t j = 0; j < results[i].cells.size(); ++j) {
      flat.emplace_back(i, j);
    }
  }
  fan_.run(flat.size(), [&](std::size_t k) {
    const auto [i, j] = flat[k];
    solve_cell(jobs[i], results[i].cells[j]);
  });
  return results;
}

}  // namespace edb::core
