// The observability layer's core guarantee: instrumentation observes,
// it never participates.  Every build records its metrics, and spans are
// a runtime switch (obs::Tracer::set_enabled), so each case runs the same
// deterministic pipeline silent and traced and requires byte-identical
// fingerprints, bit-identical solver outputs and identical oracle eval
// counts.  Each case also proves the instrumentation was live: the traced
// run collected the pipeline's spans, the silent run collected none, and
// the solver counters advanced by exactly the sweep's own solve and eval
// counts in both runs.  A solve refused as infeasible counts too, and so
// do the evals of a penalty multistart that finds no feasible point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "core/game_framework.h"
#include "core/sweep.h"
#include "engine/fan.h"
#include "mac/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/penalty.h"
#include "sim/campaign.h"

namespace edb {
namespace {

// Serialize: the tracer flag is process-global.
class ObsDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::set_enabled(false);
    obs::Tracer::clear();
  }
  void TearDown() override {
    obs::Tracer::set_enabled(false);
    obs::Tracer::clear();
  }
};

bool collected(std::string_view span) {
  const auto events = obs::Tracer::collect();
  return std::any_of(events.begin(), events.end(),
                     [&](const obs::TraceEvent& e) { return span == e.name; });
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::vector<sim::CampaignScenario> small_scenarios() {
  std::vector<sim::CampaignScenario> out;
  sim::CampaignScenario xmac;
  xmac.name = "xmac-small";
  xmac.protocol = "xmac";
  xmac.x = {0.3};
  xmac.ring = net::RingTopology{.depth = 2, .density = 2};
  xmac.fs = 0.02;
  xmac.duration = 200;
  xmac.scenario_seed = 2001;
  out.push_back(xmac);

  sim::CampaignScenario lossy = xmac;
  lossy.name = "xmac-lossy";
  lossy.loss_probability = 0.1;
  lossy.scenario_seed = 2002;
  out.push_back(lossy);
  return out;
}

std::vector<std::string> campaign_fingerprints() {
  sim::CampaignOptions opts;
  opts.replications = 2;
  opts.seed = 77;
  opts.threads = 4;
  opts.parallel = true;
  sim::Campaign campaign(opts);
  std::vector<std::string> fps;
  for (const auto& r : campaign.run(small_scenarios())) {
    fps.push_back(r.fingerprint());
  }
  return fps;
}

TEST_F(ObsDeterminismTest, CampaignFingerprintsByteIdenticalTracedVsSilent) {
  const auto silent = campaign_fingerprints();
  EXPECT_TRUE(obs::Tracer::collect().empty());
  obs::Tracer::set_enabled(true);
  const auto traced = campaign_fingerprints();
  obs::Tracer::set_enabled(false);
  ASSERT_EQ(silent.size(), 2u);
  EXPECT_EQ(silent, traced);
  EXPECT_TRUE(collected("sim.campaign"));
  EXPECT_TRUE(collected("sim.replication"));
  EXPECT_TRUE(collected("engine.job"));
  // Paranoia: a traced re-run while events are already buffered.
  obs::Tracer::set_enabled(true);
  EXPECT_EQ(campaign_fingerprints(), silent);
}

struct SweepObservation {
  std::vector<double> energies;  // bit-compared via ==
  std::vector<double> xs;
  std::vector<long long> evals;
  std::size_t cells = 0;
  std::uint64_t solves_counted = 0;  // registry deltas over the sweep
  std::uint64_t evals_counted = 0;
};

SweepObservation observe_sweep() {
  const auto scenario = core::Scenario::paper_default();
  auto model = mac::make_model("X-MAC", scenario.context).take();
  const std::uint64_t solves_before = counter("solver.solves");
  const std::uint64_t evals_before = counter("solver.oracle.evals");
  auto sweep = core::run_sweep(*model, scenario.requirements,
                               core::SweepKind::kLmax, {4.0, 5.0, 6.0});
  SweepObservation obs;
  obs.cells = sweep.cells.size();
  obs.solves_counted = counter("solver.solves") - solves_before;
  obs.evals_counted = counter("solver.oracle.evals") - evals_before;
  for (const auto& cell : sweep.cells) {
    if (!cell.feasible()) continue;
    obs.energies.push_back(cell.outcome->nbs.energy);
    for (double x : cell.outcome->nbs.x) obs.xs.push_back(x);
    obs.evals.push_back(cell.outcome->stats.evaluations);
  }
  return obs;
}

TEST_F(ObsDeterminismTest, SolverOutputsAndEvalCountsIdenticalTracedVsSilent) {
  const auto silent = observe_sweep();
  EXPECT_TRUE(obs::Tracer::collect().empty());
  // Every cell bargains (P1, P2 and P4 each solve once), so the counters
  // must account for exactly three solves and every oracle eval per cell.
  ASSERT_EQ(silent.evals.size(), silent.cells);
  ASSERT_EQ(silent.cells, 3u);
  obs::Tracer::set_enabled(true);
  const auto traced = observe_sweep();
  obs::Tracer::set_enabled(false);
  EXPECT_EQ(silent.energies, traced.energies);  // bit-identical doubles
  EXPECT_EQ(silent.xs, traced.xs);
  EXPECT_EQ(silent.evals, traced.evals);  // same oracle call count
  EXPECT_TRUE(collected("solver.dual_solve"));
  EXPECT_TRUE(collected("engine.job"));

  const auto evals = static_cast<std::uint64_t>(
      std::accumulate(silent.evals.begin(), silent.evals.end(), 0LL));
  for (const SweepObservation* run : {&silent, &traced}) {
    EXPECT_EQ(run->solves_counted, 3 * run->cells);
    EXPECT_EQ(run->evals_counted, evals);
  }
}

struct InfeasibleObservation {
  std::string error;
  std::uint64_t solves_counted = 0;
  std::uint64_t evals_counted = 0;
  std::uint64_t certified_counted = 0;
};

// A (P2) whose budget sits below the protocol's least reachable energy:
// the phase-I certificate refuses it, and the refusal still counts.
InfeasibleObservation observe_infeasible_p2() {
  const auto scenario = core::Scenario::paper_default();
  auto model = mac::make_model("LMAC", scenario.context).take();
  core::AppRequirements req = scenario.requirements;
  req.e_budget = 0.9 * core::protocol_envelope(*model).e_min;
  core::EnergyDelayGame game(*model, req);
  const std::uint64_t solves_before = counter("solver.solves");
  const std::uint64_t evals_before = counter("solver.oracle.evals");
  const std::uint64_t certified_before = counter("solver.phase1_certified");
  const auto r = game.solve_p2();
  InfeasibleObservation obs;
  obs.error = r.ok() ? "solved" : r.error().to_string();
  obs.solves_counted = counter("solver.solves") - solves_before;
  obs.evals_counted = counter("solver.oracle.evals") - evals_before;
  obs.certified_counted =
      counter("solver.phase1_certified") - certified_before;
  return obs;
}

TEST_F(ObsDeterminismTest, InfeasibleSolvesCountTracedAndSilent) {
  const auto silent = observe_infeasible_p2();
  EXPECT_TRUE(obs::Tracer::collect().empty());
  obs::Tracer::set_enabled(true);
  const auto traced = observe_infeasible_p2();
  obs::Tracer::set_enabled(false);
  EXPECT_NE(silent.error.find("(P2)"), std::string::npos) << silent.error;
  EXPECT_EQ(silent.error, traced.error);
  EXPECT_TRUE(collected("solver.dual_solve"));
  EXPECT_TRUE(collected("solver.stage2.phase1"));
  for (const InfeasibleObservation* run : {&silent, &traced}) {
    EXPECT_EQ(run->solves_counted, 1u);
    EXPECT_GT(run->evals_counted, 0u);
    EXPECT_EQ(run->certified_counted, 1u);
  }
  EXPECT_EQ(silent.evals_counted, traced.evals_counted);
}

// A (P2) sliver: S-MAC's budget at 1.1 e_min, a rung of the phase-I
// certificate test's ladder.  The coarse scan finds no feasible point,
// phase I finds the budget reachable, and the penalty multistart runs.
// Its optimum sits on the budget, so its answer misses the strict
// re-check by the penalty's ~1e-8 residual and the solve answers
// infeasible.  The multistart's evals must count all the same.
constexpr double kSliverBudget = 1.1;

struct SliverObservation {
  std::string error;
  std::uint64_t solves_counted = 0;
  std::uint64_t evals_counted = 0;
  std::uint64_t fallbacks_counted = 0;
  int penalty_evals = 0;  // the multistart's own count, run standalone
};

SliverObservation observe_failed_penalty_p2() {
  const auto scenario = core::Scenario::paper_default();
  auto model = mac::make_model("S-MAC", scenario.context).take();
  core::AppRequirements req = scenario.requirements;
  req.e_budget = kSliverBudget * core::protocol_envelope(*model).e_min;
  core::EnergyDelayGame game(*model, req);
  const std::uint64_t solves_before = counter("solver.solves");
  const std::uint64_t evals_before = counter("solver.oracle.evals");
  const std::uint64_t fallbacks_before = counter("solver.penalty_fallbacks");
  const auto r = game.solve_p2();
  SliverObservation obs;
  obs.error = r.ok() ? "solved" : r.error().to_string();
  obs.solves_counted = counter("solver.solves") - solves_before;
  obs.evals_counted = counter("solver.oracle.evals") - evals_before;
  obs.fallbacks_counted =
      counter("solver.penalty_fallbacks") - fallbacks_before;

  // The same (P2) handed to the multistart directly: min L subject to the
  // protocol margin, then the normalised budget slack, in dual_solve's
  // order.  The scalar model bodies are bit-identical to the batch
  // kernels, so the multistart takes the same path and eval count.
  const double cap = req.e_budget;
  const opt::Box box(model->params().lower(), model->params().upper());
  obs.penalty_evals =
      opt::constrained_min(
          [&](const std::vector<double>& x) { return model->latency(x); },
          {[&](const std::vector<double>& x) {
             return model->feasibility_margin(x);
           },
           [&](const std::vector<double>& x) {
             return (cap - model->energy(x)) / cap;
           }},
          box)
          .evaluations;
  return obs;
}

TEST_F(ObsDeterminismTest, FailedPenaltyMultistartEvalsCount) {
  const auto silent = observe_failed_penalty_p2();
  obs::Tracer::set_enabled(true);
  const auto traced = observe_failed_penalty_p2();
  obs::Tracer::set_enabled(false);
  EXPECT_NE(silent.error.find("(P2)"), std::string::npos) << silent.error;
  EXPECT_EQ(silent.error, traced.error);
  ASSERT_GT(silent.penalty_evals, 0);
  // Besides the multistart, the solve pays at least the first 65 x 65
  // lattice of its coarse scan and of phase I (S-MAC is 2-D).
  const std::uint64_t floor =
      static_cast<std::uint64_t>(silent.penalty_evals) + 2 * 65 * 65;
  for (const SliverObservation* run : {&silent, &traced}) {
    EXPECT_EQ(run->solves_counted, 1u);
    EXPECT_EQ(run->fallbacks_counted, 1u);
    EXPECT_GE(run->evals_counted, floor);
  }
  EXPECT_EQ(silent.evals_counted, traced.evals_counted);
}

std::vector<std::uint64_t> fan_values() {
  engine::ParallelExecutor executor(4);
  return engine::fan<std::uint64_t>(executor, 64, [](std::size_t i) {
    // Job identity -> seed stream; any scheduling dependence would break
    // the value equality below.
    return engine::job_seed(0xfeedULL, static_cast<std::uint64_t>(i) + 1);
  });
}

TEST_F(ObsDeterminismTest, FanResultsIdenticalTracedVsSilent) {
  const std::uint64_t jobs_before = counter("engine.fan.jobs");
  const auto silent = fan_values();
  EXPECT_TRUE(obs::Tracer::collect().empty());
  obs::Tracer::set_enabled(true);
  const auto traced = fan_values();
  obs::Tracer::set_enabled(false);
  EXPECT_EQ(silent, traced);
  EXPECT_TRUE(collected("engine.fan"));
  EXPECT_TRUE(collected("engine.job"));
  EXPECT_EQ(counter("engine.fan.jobs") - jobs_before, 2 * silent.size());
}

}  // namespace
}  // namespace edb
