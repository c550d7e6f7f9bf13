#include "service/core.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/sweep.h"
#include "mac/registry.h"

namespace edb::service {
namespace {

// Sequential engine: the pipeline's grouping, not the executor, is under
// test, and a deterministic single thread keeps failures readable.
CoreOptions test_core_opts() {
  CoreOptions opts;
  opts.engine = core::EngineOptions{.threads = 1, .parallel = false};
  opts.cache_capacity = 64;
  opts.cache_shards = 4;
  return opts;
}

TuningQuery xmac_query(double l_max) {
  TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  q.scenario.requirements.l_max = l_max;
  q.protocols = {"X-MAC"};
  return q;
}

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : core_(test_core_opts()) {}

  ServiceCore core_;
};

TEST_F(PlannerTest, GroupsLmaxSiblingsIntoOneSweep) {
  auto results = core_.serve({xmac_query(3.0), xmac_query(4.0),
                              xmac_query(5.0)});
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->per_protocol.size(), 1u);
    EXPECT_TRUE(r->per_protocol[0].feasible());
    EXPECT_EQ(r->recommended, 0);
  }
  const auto& stats = core_.planner_stats();
  EXPECT_EQ(stats.sweep_jobs, 1u);  // one sweep answered all three
  EXPECT_EQ(stats.solved, 3u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST_F(PlannerTest, ResultsBitIdenticalToColdRunSweep) {
  auto results = core_.serve({xmac_query(3.0), xmac_query(4.0),
                              xmac_query(5.0)});
  auto model =
      mac::make_model("X-MAC", core::Scenario::paper_default().context)
          .take();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double l_max = 3.0 + static_cast<double>(i);
    core::AppRequirements req = core::Scenario::paper_default().requirements;
    req.l_max = l_max;
    // The acceptance property: a served result equals a cold sequential
    // core::run_sweep of the same scenario, bit for bit.
    auto cold = core::run_sweep(*model, req, core::SweepKind::kLmax,
                                {l_max});
    const auto& served = results[i]->per_protocol[0];
    ASSERT_TRUE(cold.cells[0].feasible());
    ASSERT_TRUE(served.feasible());
    EXPECT_EQ(served.outcome->nbs.energy, cold.cells[0].outcome->nbs.energy);
    EXPECT_EQ(served.outcome->nbs.latency,
              cold.cells[0].outcome->nbs.latency);
    EXPECT_EQ(served.outcome->nash_product,
              cold.cells[0].outcome->nash_product);
    EXPECT_EQ(served.outcome->p1.energy, cold.cells[0].outcome->p1.energy);
    EXPECT_EQ(served.outcome->p2.latency, cold.cells[0].outcome->p2.latency);
  }
}

TEST_F(PlannerTest, CoalescesDuplicatesWithinABatch) {
  auto q = xmac_query(4.0);
  auto noisy = q;
  noisy.scenario.requirements.l_max *= 1.0 + 1e-13;  // quantizes identically
  auto results = core_.serve({q, q, noisy});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(core_.planner_stats().solved, 1u);
  EXPECT_EQ(core_.planner_stats().coalesced, 2u);
  EXPECT_EQ(results[0]->per_protocol[0].outcome->nbs.energy,
            results[2]->per_protocol[0].outcome->nbs.energy);
}

TEST_F(PlannerTest, SecondBatchIsAllCacheHits) {
  core_.serve({xmac_query(4.0), xmac_query(5.0)});
  const std::size_t solved_before = core_.planner_stats().solved;
  auto again = core_.serve({xmac_query(4.0), xmac_query(5.0)});
  EXPECT_EQ(core_.planner_stats().solved, solved_before);  // nothing new
  EXPECT_EQ(core_.planner_stats().cache_hits, 2u);
  for (const auto& r : again) ASSERT_TRUE(r.ok());
}

TEST_F(PlannerTest, PerQueryErrorsDoNotFailTheBatch) {
  auto bad_protocol = xmac_query(4.0);
  bad_protocol.protocols = {"T-MAC"};
  auto bad_scenario = xmac_query(4.0);
  bad_scenario.scenario.requirements.l_max = -1.0;
  auto bad_alpha = xmac_query(4.0);
  bad_alpha.options.alpha = 1.0;  // solve_weighted wants (0, 1) open
  auto results = core_.serve(
      {bad_protocol, xmac_query(4.0), bad_scenario, bad_alpha});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].error().code, ErrorCode::kNotFound);
  EXPECT_TRUE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_FALSE(results[3].ok());
  EXPECT_EQ(results[3].error().code, ErrorCode::kInvalidArgument);
}

TEST_F(PlannerTest, RecommendationMaximisesEnergyHeadroom) {
  TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  q.protocols = {"X-MAC", "DMAC"};
  auto results = core_.serve({q});
  ASSERT_TRUE(results[0].ok());
  const auto& r = *results[0];
  ASSERT_EQ(r.per_protocol.size(), 2u);
  ASSERT_GE(r.recommended, 0);
  // Recompute the ranking by hand (the protocol_selection rule).
  double best_headroom = -1;
  int best = -1;
  for (std::size_t i = 0; i < r.per_protocol.size(); ++i) {
    if (!r.per_protocol[i].feasible()) continue;
    const double headroom = q.scenario.requirements.e_budget -
                            r.per_protocol[i].outcome->nbs.energy;
    if (best < 0 || headroom > best_headroom) {
      best_headroom = headroom;
      best = static_cast<int>(i);
    }
  }
  EXPECT_EQ(r.recommended, best);
}

TEST_F(PlannerTest, ProtocolOrderIsCanonical) {
  TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  q.protocols = {"xmac", "dmac"};
  auto results = core_.serve({q});
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0]->per_protocol[0].protocol, "DMAC");
  EXPECT_EQ(results[0]->per_protocol[1].protocol, "X-MAC");
}

}  // namespace
}  // namespace edb::service
