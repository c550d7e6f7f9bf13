#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "mac/registry.h"

namespace edb::core {
namespace {

EngineOptions sequential_opts() {
  return EngineOptions{.threads = 1, .parallel = false};
}

EngineOptions parallel_opts(int threads) {
  return EngineOptions{.threads = threads, .parallel = true};
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : scenario_(Scenario::paper_default()) {
    // X-MAC is fully feasible over the fig. 1 range; LMAC has an
    // infeasible prefix.
    for (const char* name : {"X-MAC", "LMAC"}) {
      models_.push_back(mac::make_model(name, scenario_.context).take());
      jobs_.push_back(SweepJob{models_.back().get(), scenario_.requirements,
                               SweepKind::kLmax,
                               paper_sweep_values(SweepKind::kLmax)});
    }
  }

  static void expect_identical(const SweepResult& a, const SweepResult& b) {
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
      ASSERT_EQ(a.cells[i].feasible(), b.cells[i].feasible())
          << a.protocol << " cell " << i;
      if (!a.cells[i].feasible()) {
        // Every cell is a cold solve at any width, so even the reason
        // strings must match byte for byte.
        EXPECT_EQ(a.cells[i].infeasible_reason, b.cells[i].infeasible_reason)
            << a.protocol << " cell " << i;
        continue;
      }
      const auto& oa = *a.cells[i].outcome;
      const auto& ob = *b.cells[i].outcome;
      // Bit-identical, not merely close: executors only decide when a cell
      // is computed, never what goes into it.
      EXPECT_EQ(oa.nbs.energy, ob.nbs.energy) << a.protocol << " cell " << i;
      EXPECT_EQ(oa.nbs.latency, ob.nbs.latency) << a.protocol << " cell "
                                                << i;
      EXPECT_EQ(oa.p1.energy, ob.p1.energy);
      EXPECT_EQ(oa.p2.latency, ob.p2.latency);
      EXPECT_EQ(oa.nash_product, ob.nash_product);
    }
  }

  Scenario scenario_;
  std::vector<std::unique_ptr<mac::AnalyticMacModel>> models_;
  std::vector<SweepJob> jobs_;
};

TEST_F(EngineTest, ParallelSweepMatchesSequentialCellForCell) {
  ScenarioEngine sequential(sequential_opts());
  ScenarioEngine parallel(parallel_opts(4));
  auto seq = sequential.run_sweeps(jobs_);
  auto par = parallel.run_sweeps(jobs_);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    expect_identical(seq[i], par[i]);
  }
}

TEST_F(EngineTest, ColdParallelCellsMatchSequential) {
  // Every cell is its own task; an uneven partition across three threads
  // must still not change anything.
  ScenarioEngine sequential(sequential_opts());
  ScenarioEngine parallel(parallel_opts(3));
  auto seq = sequential.run_sweeps({jobs_[0]});
  auto par = parallel.run_sweeps({jobs_[0]});
  expect_identical(seq[0], par[0]);
}

TEST_F(EngineTest, LegacyRunSweepMatchesEngine) {
  auto legacy = run_sweep(*models_[0], scenario_.requirements,
                          SweepKind::kLmax,
                          paper_sweep_values(SweepKind::kLmax));
  ScenarioEngine sequential(sequential_opts());
  auto engine = sequential.run_sweep(jobs_[0]);
  expect_identical(legacy, engine);
}

TEST_F(EngineTest, SolveBatchMatchesDirectSolves) {
  std::vector<SolveJob> jobs;
  for (const auto& m : models_) {
    jobs.push_back(SolveJob{m.get(), scenario_.requirements});
  }
  ScenarioEngine engine(parallel_opts(2));
  auto batch = engine.solve_batch(jobs);
  ASSERT_EQ(batch.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EnergyDelayGame game(*models_[i], scenario_.requirements);
    auto direct = game.solve();
    ASSERT_EQ(batch[i].ok(), direct.ok());
    if (!direct.ok()) continue;
    EXPECT_EQ(batch[i]->nbs.energy, direct->nbs.energy);
    EXPECT_EQ(batch[i]->nbs.latency, direct->nbs.latency);
  }
}

TEST_F(EngineTest, BudgetSweepMatchesAcrossWidths) {
  // The kBudget kind sweeps the other requirement axis.
  SweepJob job{models_[1].get(), scenario_.requirements, SweepKind::kBudget,
               paper_sweep_values(SweepKind::kBudget)};
  ScenarioEngine wide(parallel_opts(4));
  ScenarioEngine sequential(sequential_opts());
  expect_identical(wide.run_sweep(job), sequential.run_sweep(job));
}

TEST_F(EngineTest, InfeasibleReasonsMatchAcrossWidthsPerCell) {
  // LMAC has an infeasible prefix over a fine Lmax grid: the dead cells'
  // reason strings at width 4 must equal the width-1 ones cell for cell.
  std::vector<double> values;
  for (int i = 0; i < 12; ++i) values.push_back(1.0 + 5.0 * i / 11.0);
  SweepJob job{models_[1].get(), scenario_.requirements, SweepKind::kLmax,
               values};
  ScenarioEngine wide(parallel_opts(4));
  ScenarioEngine sequential(sequential_opts());
  auto w = wide.run_sweep(job);
  auto c = sequential.run_sweep(job);
  ASSERT_EQ(w.cells.size(), c.cells.size());
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    ASSERT_EQ(w.cells[i].feasible(), c.cells[i].feasible()) << "cell " << i;
    EXPECT_EQ(w.cells[i].infeasible_reason, c.cells[i].infeasible_reason)
        << "cell " << i;
  }
}

TEST_F(EngineTest, AllInfeasibleSweepKeepsMixedReasonsAcrossWidths) {
  // A starvation budget makes every cell infeasible, but not for one
  // reason: tight-Lmax cells die at (P1) before the budget is even
  // consulted, the rest die at (P2).  Width 4 must match width 1 cell for
  // cell.
  AppRequirements req = scenario_.requirements;
  req.e_budget = 1e-4;
  // LMAC's envelope floor is l_min ~ 0.135 s: the first two cells sit
  // below it (P1 territory), the rest above (P2 territory).
  std::vector<double> values = {0.05, 0.1, 0.5, 1.5, 3.0, 4.5, 6.0};
  SweepJob job{models_[1].get(), req, SweepKind::kLmax, values};
  ScenarioEngine wide(parallel_opts(4));
  ScenarioEngine sequential(sequential_opts());
  auto w = wide.run_sweep(job);
  auto c = sequential.run_sweep(job);
  std::size_t p1_cells = 0, p2_cells = 0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    ASSERT_FALSE(c.cells[i].feasible()) << "cell " << i;
    ASSERT_FALSE(w.cells[i].feasible()) << "cell " << i;
    EXPECT_EQ(w.cells[i].infeasible_reason, c.cells[i].infeasible_reason)
        << "cell " << i;
    if (c.cells[i].infeasible_reason.find("(P1)") != std::string::npos) {
      ++p1_cells;
    }
    if (c.cells[i].infeasible_reason.find("(P2)") != std::string::npos) {
      ++p2_cells;
    }
  }
  // The scenario really exercises both failure modes.
  EXPECT_GT(p1_cells, 0u);
  EXPECT_GT(p2_cells, 0u);
}

// A served Lmax ladder names the stage a cold run_sweep names in every
// dead cell.  The deployment is catalog entry cc1000-legacy #0 and the
// ladder is servebench's sweep_inproc shape: 32 rungs from a quarter of
// the deployment's Lmax up a decade.  LMAC's rung 1 sits just below its
// latency floor, where a (P1) refusal is easy to mislabel (P3) by
// comparing against an independently computed envelope.
TEST(EngineReasonsTest, ServedLmacLadderReasonsMatchColdRunSweep) {
  const Scenario sc = catalog::Catalog::builtin()
                          .expand("cc1000-legacy", 0, catalog::kDefaultSeed)
                          .scenario;
  auto model = mac::make_model("LMAC", sc.context).take();
  constexpr int kRungs = 32;
  std::vector<double> values;
  std::vector<PointQuery> queries;
  for (int r = 0; r < kRungs; ++r) {
    AppRequirements req = sc.requirements;
    req.l_max =
        sc.requirements.l_max * 0.25 * std::pow(10.0, r / (kRungs - 1.0));
    values.push_back(req.l_max);
    queries.push_back(PointQuery{model.get(), req});
  }
  const SweepPlan plan = plan_point_queries(queries);
  ScenarioEngine engine(parallel_opts(2));
  const auto served = engine.run_sweeps(plan.jobs);
  const SweepResult cold =
      run_sweep(*model, sc.requirements, SweepKind::kLmax, values);

  ASSERT_NE(cold.cells[1].infeasible_reason.find("(P1)"), std::string::npos)
      << cold.cells[1].infeasible_reason;
  std::size_t dead = 0;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const SweepCell& cell =
        served[plan.slots[k].job].cells[plan.slots[k].cell];
    ASSERT_EQ(cell.feasible(), cold.cells[k].feasible()) << "rung " << k;
    if (cell.feasible()) continue;
    ++dead;
    EXPECT_EQ(cell.infeasible_reason, cold.cells[k].infeasible_reason)
        << "rung " << k;
  }
  EXPECT_GT(dead, 1u);
  EXPECT_LT(dead, queries.size());
}

TEST(PlanPointQueriesTest, GroupsBudgetSiblingsIntoSweeps) {
  Scenario scenario = Scenario::paper_default();
  auto xmac = mac::make_model("X-MAC", scenario.context).take();
  auto dmac = mac::make_model("DMAC", scenario.context).take();

  auto req_at = [&](double l_max, double budget) {
    AppRequirements r = scenario.requirements;
    r.l_max = l_max;
    r.e_budget = budget;
    return r;
  };
  std::vector<PointQuery> queries = {
      {xmac.get(), req_at(5.0, 0.06)},  // group A
      {dmac.get(), req_at(5.0, 0.06)},  // group B (other model)
      {xmac.get(), req_at(3.0, 0.06)},  // group A
      {xmac.get(), req_at(3.0, 0.05)},  // group C (other budget)
      {xmac.get(), req_at(5.0, 0.06)},  // duplicate of [0]
      {xmac.get(), req_at(4.0, 0.06), 0.7},  // group D (other alpha)
  };
  const SweepPlan plan = plan_point_queries(queries);
  ASSERT_EQ(plan.jobs.size(), 4u);
  ASSERT_EQ(plan.slots.size(), queries.size());

  // Group A: X-MAC at budget 0.06 with Lmax {3, 5}, ascending.
  EXPECT_EQ(plan.jobs[0].model, xmac.get());
  EXPECT_EQ(plan.jobs[0].kind, SweepKind::kLmax);
  EXPECT_EQ(plan.jobs[0].values, (std::vector<double>{3.0, 5.0}));
  EXPECT_EQ(plan.jobs[0].base.e_budget, 0.06);

  EXPECT_EQ(plan.jobs[1].model, dmac.get());
  EXPECT_EQ(plan.jobs[2].base.e_budget, 0.05);
  EXPECT_EQ(plan.jobs[3].alpha, 0.7);

  // Slots point every query at its cell; the duplicate shares one.
  EXPECT_EQ(plan.slots[0].job, 0u);
  EXPECT_EQ(plan.slots[0].cell, 1u);  // Lmax 5 is the second ascending value
  EXPECT_EQ(plan.slots[2].job, 0u);
  EXPECT_EQ(plan.slots[2].cell, 0u);
  EXPECT_EQ(plan.slots[4].job, plan.slots[0].job);
  EXPECT_EQ(plan.slots[4].cell, plan.slots[0].cell);
  EXPECT_EQ(plan.slots[1].job, 1u);
  EXPECT_EQ(plan.slots[3].job, 2u);
  EXPECT_EQ(plan.slots[5].job, 3u);
}

TEST(PlanPointQueriesTest, PlannedCellsSolveLikeAStandaloneSweep) {
  Scenario scenario = Scenario::paper_default();
  auto model = mac::make_model("X-MAC", scenario.context).take();
  std::vector<PointQuery> queries;
  for (double l : {4.0, 6.0, 5.0}) {
    AppRequirements r = scenario.requirements;
    r.l_max = l;
    queries.push_back(PointQuery{model.get(), r});
  }
  const SweepPlan plan = plan_point_queries(queries);
  ASSERT_EQ(plan.jobs.size(), 1u);

  ScenarioEngine engine(sequential_opts());
  auto results = engine.run_sweeps(plan.jobs);
  auto reference = run_sweep(*model, scenario.requirements, SweepKind::kLmax,
                             {4.0, 5.0, 6.0});
  ASSERT_EQ(results[0].cells.size(), reference.cells.size());
  for (std::size_t i = 0; i < reference.cells.size(); ++i) {
    ASSERT_TRUE(reference.cells[i].feasible());
    EXPECT_EQ(results[0].cells[i].outcome->nbs.energy,
              reference.cells[i].outcome->nbs.energy);
    EXPECT_EQ(results[0].cells[i].outcome->nbs.latency,
              reference.cells[i].outcome->nbs.latency);
  }
}

}  // namespace
}  // namespace edb::core
