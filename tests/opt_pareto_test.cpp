#include "opt/pareto.h"

#include <gtest/gtest.h>

#include <cmath>

namespace edb::opt {
namespace {

TEST(Dominates, StrictAndWeak) {
  ParetoPoint a{{0}, 1.0, 1.0};
  ParetoPoint b{{0}, 2.0, 2.0};
  ParetoPoint c{{0}, 1.0, 2.0};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_TRUE(dominates(a, c));
  EXPECT_FALSE(dominates(b, a));
  EXPECT_FALSE(dominates(a, a));  // equal points do not dominate
}

TEST(ParetoFilter, RemovesDominatedPoints) {
  std::vector<ParetoPoint> pts = {
      {{0}, 1.0, 5.0}, {{0}, 2.0, 3.0}, {{0}, 3.0, 4.0},  // dominated
      {{0}, 4.0, 1.0}, {{0}, 5.0, 2.0},                    // dominated
  };
  auto front = pareto_filter(pts);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_DOUBLE_EQ(front[0].f1, 1.0);
  EXPECT_DOUBLE_EQ(front[1].f1, 2.0);
  EXPECT_DOUBLE_EQ(front[2].f1, 4.0);
}

TEST(ParetoFilter, SortedByF1WithDescendingF2) {
  std::vector<ParetoPoint> pts;
  for (int i = 0; i < 50; ++i) {
    const double t = i / 49.0;
    pts.push_back({{t}, t, 1.0 - t});
  }
  auto front = pareto_filter(pts);
  EXPECT_EQ(front.size(), 50u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].f1, front[i - 1].f1);
    EXPECT_LT(front[i].f2, front[i - 1].f2);
  }
}

TEST(ParetoFilter, DuplicatesCollapse) {
  std::vector<ParetoPoint> pts = {{{0}, 1.0, 1.0}, {{0}, 1.0, 1.0}};
  EXPECT_EQ(pareto_filter(pts).size(), 1u);
}

TEST(TraceFrontier, HyperbolicTradeoffIsFullyNonDominated) {
  // f1 = x, f2 = 1/x: every feasible point is on the frontier.
  Box box({0.1}, {10.0});
  auto front = trace_frontier(
      [](const std::vector<double>& x) { return x[0]; },
      [](const std::vector<double>& x) { return 1.0 / x[0]; }, box, nullptr,
      101);
  EXPECT_EQ(front.size(), 101u);
}

TEST(TraceFrontier, FeasibilityFilterApplied) {
  Box box({0.0}, {1.0});
  auto front = trace_frontier(
      [](const std::vector<double>& x) { return x[0]; },
      [](const std::vector<double>& x) { return 1.0 - x[0]; }, box,
      [](const std::vector<double>& x) { return x[0] - 0.5; },  // x > 0.5
      101);
  for (const auto& p : front) {
    EXPECT_GT(p.x[0], 0.5);
  }
  EXPECT_FALSE(front.empty());
}

TEST(TraceFrontier, UShapedObjectiveProducesPartialFrontier) {
  // f1 = (x-0.5)^2 (U-shaped), f2 = x: only x <= 0.5 is non-dominated
  // (beyond the minimum both objectives increase).
  Box box({0.0}, {1.0});
  auto front = trace_frontier(
      [](const std::vector<double>& x) {
        return (x[0] - 0.5) * (x[0] - 0.5);
      },
      [](const std::vector<double>& x) { return x[0]; }, box, nullptr,
      101);
  for (const auto& p : front) {
    EXPECT_LE(p.x[0], 0.5 + 1e-9);
  }
}

}  // namespace
}  // namespace edb::opt
