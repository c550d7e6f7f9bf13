// BDCA-style boosted descent (opt/descent.h): convergence on smooth and
// fenced objectives, bit-stable determinism under shuffled multistart
// seeds, and — the gate the solver rewire rides on — agreement-point
// parity between the kDescent production pipeline and the retained
// kGridVerify dense-grid pipeline on every 1-D model (the three paper
// models plus B-MAC, SCP-MAC and WiseMAC), at a fraction of the
// evaluation budget.  S-MAC, the one 2-D model, misses these tolerances
// (ROADMAP lists its parity baseline); bench/solve_cold reports its gap.
#include "opt/descent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/game_framework.h"
#include "core/scenario.h"
#include "mac/registry.h"
#include "opt/batch.h"
#include "util/math.h"

namespace edb {
namespace {

using opt::bdca_descend;
using opt::bdca_multistart_min;
using opt::Box;

::testing::AssertionResult bits_eq(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "%a != %a", a, b);
  return ::testing::AssertionFailure() << buf;
}

opt::BatchObjective batched(opt::Objective f) {
  return opt::batch_from_scalar(std::move(f));
}

TEST(BdcaDescent, ConvergesOnQuadratic1D) {
  const Box box({0.0}, {2.0});
  auto f = batched(
      [](const std::vector<double>& x) { return (x[0] - 0.7) * (x[0] - 0.7); });
  auto r = bdca_descend(f, box, {0.1});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.7, 1e-4);
  EXPECT_LT(r.value, 1e-8);
  EXPECT_GT(r.evaluations, 0);
  EXPECT_GT(r.blocks, 0);
}

TEST(BdcaDescent, ConvergesOnAnisotropicQuadratic2D) {
  const Box box({-1.0, -1.0}, {3.0, 3.0});
  auto f = batched([](const std::vector<double>& x) {
    const double dx = x[0] - 1.25;
    const double dy = x[1] - 0.4;
    return dx * dx + 20.0 * dy * dy;
  });
  auto r = bdca_descend(f, box, {2.5, 2.5});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.25, 1e-3);
  EXPECT_NEAR(r.x[1], 0.4, 1e-3);
  EXPECT_LT(r.value, 1e-5);
}

TEST(BdcaDescent, StopsAtBoundaryOptimum) {
  // Minimum at the box's lower edge: the projected probes must pin there
  // instead of oscillating or escaping.
  const Box box({0.25}, {2.0});
  auto f = batched([](const std::vector<double>& x) { return x[0] * x[0]; });
  auto r = bdca_descend(f, box, {1.7});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.25, 1e-6);
}

TEST(BdcaDescent, BacktracksToAFencedBoundary) {
  // +inf fence below 0.3 (the BatchFence shape): the line search must
  // shrink past the fence and settle near the constrained optimum.
  const Box box({0.0}, {1.0});
  auto f = batched([](const std::vector<double>& x) {
    if (x[0] < 0.3) return kInf;
    return x[0] * x[0];
  });
  auto r = bdca_descend(f, box, {0.9});
  ASSERT_TRUE(r.converged);
  EXPECT_GE(r.x[0], 0.3);
  EXPECT_LT(r.x[0], 0.33);
}

TEST(BdcaDescent, InfeasibleStartReportsNotConverged) {
  const Box box({0.0}, {1.0});
  auto f = batched([](const std::vector<double>& x) {
    if (x[0] < 2.0) return kInf;  // everything fenced
    return x[0];
  });
  auto r = bdca_descend(f, box, {0.5});
  EXPECT_FALSE(r.converged);
}

TEST(BdcaMultistart, FindsTheGlobalWellOfADoubleWell) {
  // (x^2-1)^2 + 0.1 x: local minimum near +1, global near -1.012.
  const Box box({-2.0}, {2.0});
  auto dwell = [](const std::vector<double>& x) {
    const double q = x[0] * x[0] - 1.0;
    return q * q + 0.1 * x[0];
  };
  auto f = batched(dwell);

  // A single descent from the wrong basin stays in the local well...
  auto local = bdca_descend(f, box, {1.3});
  EXPECT_NEAR(local.x[0], 0.987, 0.01);

  // ...the multistart's seeding lattice finds the global one.
  auto global = bdca_multistart_min(f, box);
  ASSERT_TRUE(global.converged);
  EXPECT_NEAR(global.x[0], -1.012, 0.01);
  EXPECT_LT(global.value, local.value);
}

TEST(BdcaMultistart, BitStableUnderShuffledExtraSeeds) {
  const Box box({-2.0}, {2.0});
  auto dwell = [](const std::vector<double>& x) {
    const double q = x[0] * x[0] - 1.0;
    return q * q + 0.1 * x[0];
  };
  const std::vector<std::vector<double>> seeds = {
      {0.9}, {-0.9}, {0.31}, {1.77}, {-0.31}, {0.9}};  // incl. a duplicate

  auto ra = bdca_multistart_min(batched(dwell), box, seeds);

  auto reversed = seeds;
  std::reverse(reversed.begin(), reversed.end());
  auto rb = bdca_multistart_min(batched(dwell), box, reversed);

  ASSERT_EQ(ra.x.size(), rb.x.size());
  for (std::size_t i = 0; i < ra.x.size(); ++i) {
    EXPECT_TRUE(bits_eq(ra.x[i], rb.x[i])) << "x[" << i << "]";
  }
  EXPECT_TRUE(bits_eq(ra.value, rb.value));
}

TEST(BdcaMultistart, AllFencedPoolReportsNotConverged) {
  const Box box({0.0}, {1.0});
  auto f = batched([](const std::vector<double>&) { return kInf; });
  auto r = bdca_multistart_min(f, box);
  EXPECT_FALSE(r.converged);
}

// ---- agreement-point parity: kDescent vs kGridVerify on the 1-D models

class DescentParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DescentParityTest, MatchesGridVerifyAtAgreementPoints) {
  const core::Scenario scenario = core::Scenario::paper_default();
  auto model = mac::make_model(GetParam(), scenario.context).take();

  core::EnergyDelayGame fast(*model, scenario.requirements);
  fast.set_solver_mode(core::SolverMode::kDescent);
  core::EnergyDelayGame slow(*model, scenario.requirements);
  slow.set_solver_mode(core::SolverMode::kGridVerify);

  auto a = fast.solve();
  auto b = slow.solve();
  ASSERT_TRUE(a.ok()) << GetParam();
  ASSERT_TRUE(b.ok()) << GetParam();

  // Same selected operating point: objectives within 1e-6 relative, the
  // parameter within 1e-4 of the box width (the objectives are flat at
  // sqrt(eps) around the optimum, so x is the looser of the two).
  const double width =
      model->params().upper()[0] - model->params().lower()[0];
  auto expect_point_match = [&](const core::OperatingPoint& p,
                                const core::OperatingPoint& q,
                                const char* label) {
    EXPECT_LT(rel_diff(p.energy, q.energy), 1e-6) << GetParam() << label;
    EXPECT_LT(rel_diff(p.latency, q.latency), 1e-6) << GetParam() << label;
    EXPECT_LT(std::abs(p.x[0] - q.x[0]) / width, 1e-4) << GetParam() << label;
  };
  expect_point_match(a->p1, b->p1, " p1");
  expect_point_match(a->p2, b->p2, " p2");
  expect_point_match(a->nbs, b->nbs, " nbs");
  EXPECT_LT(rel_diff(a->nash_product, b->nash_product), 1e-6) << GetParam();

  // The point of the rewire: the descent pipeline must be >= 5x cheaper
  // in oracle evaluations (the bench gates the absolute numbers).
  EXPECT_LT(a->stats.evaluations * 5, b->stats.evaluations) << GetParam();
  EXPECT_LT(a->stats.evaluations, 3000) << GetParam();
}

TEST_P(DescentParityTest, DescentModeIsDeterministic) {
  const core::Scenario scenario = core::Scenario::paper_default();
  auto model = mac::make_model(GetParam(), scenario.context).take();
  core::EnergyDelayGame g1(*model, scenario.requirements);
  core::EnergyDelayGame g2(*model, scenario.requirements);
  auto a = g1.solve().take();
  auto b = g2.solve().take();
  ASSERT_EQ(a.nbs.x.size(), b.nbs.x.size());
  for (std::size_t i = 0; i < a.nbs.x.size(); ++i) {
    EXPECT_TRUE(bits_eq(a.nbs.x[i], b.nbs.x[i])) << GetParam();
  }
  EXPECT_TRUE(bits_eq(a.nash_product, b.nash_product)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(OneDimensionalProtocols, DescentParityTest,
                         ::testing::Values("X-MAC", "DMAC", "LMAC", "B-MAC",
                                           "SCP-MAC", "WiseMAC"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace edb
