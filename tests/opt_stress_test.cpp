// Solver stress and edge cases beyond the per-solver unit tests: higher
// dimensions, razor-thin feasible bands, and adversarial fences — the
// failure modes a penalty/Nelder-Mead/grid pipeline is typically bent by
// in the wild.
#include <gtest/gtest.h>

#include <cmath>

#include "opt/grid.h"
#include "opt/nelder_mead.h"
#include "opt/penalty.h"
#include "util/math.h"

namespace edb::opt {
namespace {

TEST(NelderMeadStress, SixDimensionalSphere) {
  const std::size_t n = 6;
  Box box(std::vector<double>(n, -3.0), std::vector<double>(n, 3.0));
  auto r = nelder_mead_min(
      [](const std::vector<double>& x) {
        double s = 0;
        for (double v : x) s += (v - 0.5) * (v - 0.5);
        return s;
      },
      box, std::vector<double>(n, -2.0));
  for (double v : r.x) EXPECT_NEAR(v, 0.5, 1e-2);
}

TEST(NelderMeadStress, ScaleMismatchedAxes) {
  // One axis spans 1e-3, the other 1e3: the initial simplex must adapt to
  // per-axis widths (initial_step is a fraction of each box width).
  Box box({0.0, 0.0}, {1e-3, 1e3});
  auto r = nelder_mead_min(
      [](const std::vector<double>& x) {
        const double a = (x[0] - 5e-4) / 1e-3;
        const double b = (x[1] - 500.0) / 1e3;
        return a * a + b * b;
      },
      box, {1e-4, 100.0});
  EXPECT_NEAR(r.x[0], 5e-4, 1e-5);
  EXPECT_NEAR(r.x[1], 500.0, 10.0);
}

TEST(GridStress, FenceCoveringAlmostTheWholeBox) {
  // Feasible sliver of width 1e-3 near the upper corner.
  auto f = [](const std::vector<double>& x) {
    if (x[0] < 0.999) return kInf;
    return -x[0];
  };
  Box box({0.0}, {1.0});
  auto r = grid_refine_min(f, box, {.points_per_dim = 1001, .rounds = 6,
                                    .zoom = 0.1});
  EXPECT_TRUE(std::isfinite(r.value));
  EXPECT_GE(r.x[0], 0.999);
}

TEST(PenaltyStress, RazorThinFeasibleBand) {
  // 4.0 <= x <= 4.01: the band is 0.1% of the box.
  Box box({0.0}, {10.0});
  auto r = constrained_min(
      [](const std::vector<double>& x) { return x[0]; },
      {
          [](const std::vector<double>& x) { return x[0] - 4.0; },
          [](const std::vector<double>& x) { return 4.01 - x[0]; },
      },
      box);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.x[0], 4.0, 0.02);
}

TEST(PenaltyStress, ActiveConstraintCurvedBoundary) {
  // min x + y subject to x*y >= 1 in [0.1, 10]^2: optimum at x = y = 1.
  Box box({0.1, 0.1}, {10.0, 10.0});
  auto r = constrained_min(
      [](const std::vector<double>& x) { return x[0] + x[1]; },
      {[](const std::vector<double>& x) { return x[0] * x[1] - 1.0; }}, box);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.value, 2.0, 5e-2);
  EXPECT_NEAR(r.x[0] * r.x[1], 1.0, 5e-2);
}

TEST(PenaltyStress, ObjectiveMinimumDeepInsideInfeasibleRegion) {
  // Unconstrained minimum at x = 1, feasibility requires x >= 8: the
  // penalty schedule must drag the iterate across a huge objective gap.
  Box box({0.0}, {10.0});
  auto r = constrained_min(
      [](const std::vector<double>& x) {
        return (x[0] - 1.0) * (x[0] - 1.0);
      },
      {[](const std::vector<double>& x) { return x[0] - 8.0; }}, box);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.x[0], 8.0, 1e-2);
}

TEST(GridStress, ThreeDimensionalRefinement) {
  Box box({-2, -2, -2}, {2, 2, 2});
  auto r = grid_refine_min(
      [](const std::vector<double>& x) {
        return (x[0] - 1) * (x[0] - 1) + (x[1] + 1) * (x[1] + 1) +
               x[2] * x[2];
      },
      box, {.points_per_dim = 9, .rounds = 10, .zoom = 0.3});
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], -1.0, 1e-3);
  EXPECT_NEAR(r.x[2], 0.0, 1e-3);
}

}  // namespace
}  // namespace edb::opt
