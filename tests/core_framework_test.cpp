// EnergyDelayGame mechanics: (P1), (P2), (P4) on the three paper protocols,
// cross-validated against brute-force oracles over the 1-D parameter boxes,
// the cost of the batched fence (one kernel call per oracle block), and
// the 1-D stage-2 skip rule.
#include "core/game_framework.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include "mac/registry.h"
#include "obs/metrics.h"
#include "util/math.h"

namespace edb::core {
namespace {

class FrameworkTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    scenario_ = Scenario::paper_default();
    model_ = mac::make_model(GetParam(), scenario_.context).take();
  }

  // Brute-force oracle: dense scan of the (1-D) box.
  template <typename Score>
  std::vector<double> scan_best(Score score) const {
    const auto lo = model_->params().lower();
    const auto hi = model_->params().upper();
    double best = kInf;
    std::vector<double> best_x = {lo[0]};
    for (int i = 0; i <= 200000; ++i) {
      std::vector<double> x{lo[0] + (hi[0] - lo[0]) * i / 200000.0};
      const double s = score(x);
      if (s < best) {
        best = s;
        best_x = x;
      }
    }
    return best_x;
  }

  Scenario scenario_;
  std::unique_ptr<mac::AnalyticMacModel> model_;
};

TEST_P(FrameworkTest, P1MatchesBruteForce) {
  EnergyDelayGame game(*model_, scenario_.requirements);
  auto p1 = game.solve_p1();
  ASSERT_TRUE(p1.ok()) << GetParam();

  const double lmax = scenario_.requirements.l_max;
  auto oracle = scan_best([&](const std::vector<double>& x) {
    if (model_->latency(x) > lmax || !model_->feasible(x)) return kInf;
    return model_->energy(x);
  });
  EXPECT_LT(rel_diff(p1->energy, model_->energy(oracle)), 1e-3)
      << GetParam();
  EXPECT_LE(p1->latency, lmax * (1 + 1e-6));
  EXPECT_TRUE(model_->feasible(p1->x));
}

TEST_P(FrameworkTest, P2MatchesBruteForce) {
  EnergyDelayGame game(*model_, scenario_.requirements);
  auto p2 = game.solve_p2();
  ASSERT_TRUE(p2.ok()) << GetParam();

  const double budget = scenario_.requirements.e_budget;
  auto oracle = scan_best([&](const std::vector<double>& x) {
    if (model_->energy(x) > budget || !model_->feasible(x)) return kInf;
    return model_->latency(x);
  });
  EXPECT_LT(rel_diff(p2->latency, model_->latency(oracle)), 1e-3)
      << GetParam();
  EXPECT_LE(p2->energy, budget * (1 + 1e-6));
}

TEST_P(FrameworkTest, NbsMaximisesTheNashProduct) {
  EnergyDelayGame game(*model_, scenario_.requirements);
  auto out = game.solve();
  ASSERT_TRUE(out.ok()) << GetParam();

  const double ew = out->e_worst();
  const double lw = out->l_worst();
  // Oracle: maximise the product over the dense scan.
  auto oracle = scan_best([&](const std::vector<double>& x) {
    const double e = model_->energy(x);
    const double l = model_->latency(x);
    if (e > std::min(ew, scenario_.requirements.e_budget) ||
        l > std::min(lw, scenario_.requirements.l_max) ||
        !model_->feasible(x)) {
      return kInf;
    }
    return -(ew - e) * (lw - l);
  });
  const double oracle_product = (ew - model_->energy(oracle)) *
                                (lw - model_->latency(oracle));
  EXPECT_GE(out->nash_product, oracle_product * (1 - 1e-3)) << GetParam();
}

TEST_P(FrameworkTest, AgreementIsBetweenTheTwoCorners) {
  EnergyDelayGame game(*model_, scenario_.requirements);
  auto out = game.solve().take();
  // E* in [Ebest, Eworst], L* in [Lbest, Lworst] (up to solver tolerance).
  EXPECT_GE(out.nbs.energy, out.e_best() * (1 - 1e-6));
  EXPECT_LE(out.nbs.energy, out.e_worst() * (1 + 1e-6));
  EXPECT_GE(out.nbs.latency, out.l_best() * (1 - 1e-6));
  EXPECT_LE(out.nbs.latency, out.l_worst() * (1 + 1e-6));
}

TEST_P(FrameworkTest, AgreementRespectsApplicationRequirements) {
  EnergyDelayGame game(*model_, scenario_.requirements);
  auto out = game.solve().take();
  EXPECT_LE(out.nbs.energy, scenario_.requirements.e_budget * (1 + 1e-6));
  EXPECT_LE(out.nbs.latency, scenario_.requirements.l_max * (1 + 1e-6));
  EXPECT_TRUE(model_->feasible(out.nbs.x));
}

TEST_P(FrameworkTest, GainRatiosAreWithinUnitInterval) {
  EnergyDelayGame game(*model_, scenario_.requirements);
  auto out = game.solve().take();
  EXPECT_GE(out.energy_gain_ratio(), -1e-6);
  EXPECT_LE(out.energy_gain_ratio(), 1.0 + 1e-6);
  EXPECT_GE(out.latency_gain_ratio(), -1e-6);
  EXPECT_LE(out.latency_gain_ratio(), 1.0 + 1e-6);
}

TEST_P(FrameworkTest, FrontierIsMonotoneTradeoff) {
  EnergyDelayGame game(*model_, scenario_.requirements);
  auto front = game.frontier(256);
  ASSERT_GE(front.size(), 10u) << GetParam();
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].f1, front[i - 1].f1);  // energy ascending
    EXPECT_LT(front[i].f2, front[i - 1].f2);  // latency descending
  }
}

INSTANTIATE_TEST_SUITE_P(PaperProtocols, FrameworkTest,
                         ::testing::Values("X-MAC", "DMAC", "LMAC"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(FrameworkEdgeCases, ImpossibleDelayBoundIsInfeasible) {
  Scenario s = Scenario::paper_default();
  s.requirements.l_max = 0.01;  // below any protocol's floor
  auto model = mac::make_model("X-MAC", s.context).take();
  EnergyDelayGame game(*model, s.requirements);
  auto p1 = game.solve_p1();
  ASSERT_FALSE(p1.ok());
  EXPECT_EQ(p1.error().code, ErrorCode::kInfeasible);
}

TEST(FrameworkEdgeCases, ImpossibleBudgetIsInfeasible) {
  Scenario s = Scenario::paper_default();
  s.requirements.e_budget = 1e-4;  // below any protocol's floor
  auto model = mac::make_model("LMAC", s.context).take();
  EnergyDelayGame game(*model, s.requirements);
  auto p2 = game.solve_p2();
  ASSERT_FALSE(p2.ok());
  EXPECT_EQ(p2.error().code, ErrorCode::kInfeasible);
}

TEST(FrameworkEdgeCases, LmacSmallBudgetAtPaperLmaxIsInfeasible) {
  // The documented deviation (EXPERIMENTS.md): our LMAC calibration cannot
  // meet Ebudget <= 0.03 J within Lmax = 6 s.
  Scenario s = Scenario::paper_default();
  s.requirements.e_budget = 0.01;
  auto model = mac::make_model("LMAC", s.context).take();
  EnergyDelayGame game(*model, s.requirements);
  auto p2 = game.solve_p2();
  // P2 alone is solvable (no delay constraint), but the agreement is not.
  ASSERT_TRUE(p2.ok());
  EXPECT_GT(p2->latency, s.requirements.l_max);
  auto out = game.solve();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, ErrorCode::kInfeasible);
}

// Forwards every model call to a registered protocol and counts the
// evaluate_batch calls.  protocol_margin is protected in the wrapped
// model, so it forwards to the public feasibility_margin, which is the
// same value under the kV1 default the test solves.
class CountingModel final : public mac::AnalyticMacModel {
 public:
  explicit CountingModel(std::unique_ptr<mac::AnalyticMacModel> inner)
      : AnalyticMacModel(inner->context()), inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  const mac::ParamSpace& params() const override { return inner_->params(); }
  mac::PowerBreakdown power_at_ring(const std::vector<double>& x,
                                    int d) const override {
    return inner_->power_at_ring(x, d);
  }
  double hop_latency(const std::vector<double>& x, int d) const override {
    return inner_->hop_latency(x, d);
  }
  double source_wait(const std::vector<double>& x) const override {
    return inner_->source_wait(x);
  }
  double service_time(const std::vector<double>& x) const override {
    return inner_->service_time(x);
  }
  double ring_service_quantum(const std::vector<double>& x,
                              int d) const override {
    return inner_->ring_service_quantum(x, d);
  }
  void evaluate_batch(const double* xs, std::size_t n, double* energies,
                      double* latencies, double* margins) const override {
    ++calls;
    inner_->evaluate_batch(xs, n, energies, latencies, margins);
  }

  mutable long long calls = 0;

 protected:
  double protocol_margin(const std::vector<double>& x) const override {
    return inner_->feasibility_margin(x);
  }

 private:
  std::unique_ptr<mac::AnalyticMacModel> inner_;
};

// The batched fence makes exactly one kernel call per oracle block: the
// margin and every metric its slacks and objective read come from one
// evaluate_batch over the whole block.  The penalty multistart (the one
// stage that calls the kernel per point, outside any block) must not run.
TEST(FrameworkBlockOracle, OneKernelCallPerOracleBlock) {
  const Scenario s = Scenario::paper_default();
  for (const char* protocol : {"X-MAC", "DMAC", "LMAC"}) {
    SCOPED_TRACE(protocol);
    CountingModel model(mac::make_model(protocol, s.context).take());
    EnergyDelayGame game(model, s.requirements);
    const std::uint64_t fallbacks_before =
        obs::Registry::global().counter("solver.penalty_fallbacks").value();
    auto out = game.solve();
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    ASSERT_EQ(
        obs::Registry::global().counter("solver.penalty_fallbacks").value(),
        fallbacks_before);
    EXPECT_GT(out->stats.blocks, 0);
    EXPECT_EQ(model.calls, out->stats.blocks);
  }
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// Each 1-D descent solve that skips stage 2 costs stage 1's three 65-point
// rounds and the polish's ten 17-point rounds, one oracle block each.
constexpr long long kSkippedSolveBlocks = 3 + 10;

// On the paper models every stage-1 lattice has one basin: (P1), (P2) and
// (P4) each skip stage 2, so a bargaining solve is three skipped solves.
TEST(FrameworkStage2Skip, PaperModelsSkipEveryOneDimensionalSolve) {
  const Scenario s = Scenario::paper_default();
  for (const char* protocol : {"X-MAC", "DMAC", "LMAC"}) {
    SCOPED_TRACE(protocol);
    auto model = mac::make_model(protocol, s.context).take();
    EnergyDelayGame game(*model, s.requirements);
    const std::uint64_t before = counter("solver.stage2.skipped");
    auto out = game.solve();
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    EXPECT_EQ(counter("solver.stage2.skipped") - before, 3u);
    EXPECT_EQ(out->stats.blocks, 3 * kSkippedSolveBlocks);
  }
}

// The rule is 1-D only: S-MAC's 2-D descent is the stage that converges.
TEST(FrameworkStage2Skip, TwoDimensionalSmacNeverSkips) {
  const Scenario s = Scenario::paper_default();
  auto model = mac::make_model("S-MAC", s.context).take();
  ASSERT_EQ(model->params().dim(), 2u);
  EnergyDelayGame game(*model, s.requirements);
  const std::uint64_t before = counter("solver.stage2.skipped");
  auto out = game.solve();
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(counter("solver.stage2.skipped"), before);
}

// A synthetic 1-D protocol whose energy has two wells over x in [0, 1]: a
// shallow one at 0.2 and a deep one at 0.8, both feasible.  Latency rises
// linearly in x and every x meets the protocol margin.  The metrics are
// the scalar bodies, so the batch kernel is bit-identical to them.
class TwoBasinModel final : public mac::AnalyticMacModel {
 public:
  explicit TwoBasinModel(const mac::ModelContext& ctx)
      : AnalyticMacModel(ctx), params_({{"x", 0.0, 1.0, ""}}) {}

  std::string_view name() const override { return "two-basin"; }
  const mac::ParamSpace& params() const override { return params_; }
  mac::PowerBreakdown power_at_ring(const std::vector<double>& x,
                                    int) const override {
    const double shallow = 1.5 + 50.0 * (x[0] - 0.2) * (x[0] - 0.2);
    const double deep = 1.0 + 100.0 * (x[0] - 0.8) * (x[0] - 0.8);
    mac::PowerBreakdown p;
    p.cs = 1e-4 * std::min(shallow, deep);
    return p;
  }
  double hop_latency(const std::vector<double>& x, int) const override {
    return 0.2 + x[0];
  }
  void evaluate_batch(const double* xs, std::size_t n, double* energies,
                      double* latencies, double* margins) const override {
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double> x = {xs[i]};
      if (energies) energies[i] = energy(x);
      if (latencies) latencies[i] = latency(x);
      if (margins) margins[i] = feasibility_margin(x);
    }
  }

 protected:
  double protocol_margin(const std::vector<double>&) const override {
    return 1.0;
  }

 private:
  mac::ParamSpace params_;
};

// TwoBasinModel's (P1) answer under the paper context and req below,
// pinned from the pipeline before the skip rule existed.
constexpr double kTwoBasinX = 0x1.99999990912bcp-1;
constexpr double kTwoBasinEnergy = 0x1.47ae147ae147bp-7;

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// (P1) on the two-basin model sees two local minima in its stage-1
// lattice, so the rule falls back: nothing is skipped, stage 2 runs
// (blocks beyond a skipped solve's), and the answer is bit-for-bit the
// one the pipeline gave before the rule existed.
TEST(FrameworkStage2Skip, TwoBasinFenceFallsBackToStage2) {
  const mac::ModelContext ctx = Scenario::paper_default().context;
  TwoBasinModel model(ctx);
  const AppRequirements req{.e_budget = 10.0, .l_max = 10.0};
  EnergyDelayGame game(model, req);
  const std::uint64_t skipped_before = counter("solver.stage2.skipped");
  const std::uint64_t blocks_before = counter("solver.oracle.blocks");
  auto p1 = game.solve_p1();
  ASSERT_TRUE(p1.ok()) << p1.error().to_string();
  EXPECT_EQ(counter("solver.stage2.skipped"), skipped_before);
  EXPECT_GT(counter("solver.oracle.blocks") - blocks_before,
            static_cast<std::uint64_t>(kSkippedSolveBlocks));
  ASSERT_EQ(p1->x.size(), 1u);
  EXPECT_NEAR(p1->x[0], 0.8, 1e-6);  // the deep well
  EXPECT_EQ(bits_of(p1->x[0]), bits_of(kTwoBasinX));
  EXPECT_EQ(bits_of(p1->energy), bits_of(kTwoBasinEnergy));
}

}  // namespace
}  // namespace edb::core
