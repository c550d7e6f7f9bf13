#include "opt/nelder_mead.h"

#include <gtest/gtest.h>

#include <cmath>

namespace edb::opt {
namespace {

TEST(NelderMead, Quadratic1D) {
  Box box({-10.0}, {10.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    return (x[0] - 2.0) * (x[0] - 2.0);
  }, box, {0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(NelderMead, Rosenbrock2D) {
  Box box({-5.0, -5.0}, {5.0, 5.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    const double a = 1 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100 * b * b;
  }, box, {-1.0, 1.0});
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(NelderMead, RespectsBoxWhenMinimumIsOutside) {
  // Unconstrained minimum at (3, 3); box caps at 1.
  Box box({0.0, 0.0}, {1.0, 1.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] - 3.0) * (x[1] - 3.0);
  }, box, {0.5, 0.5});
  EXPECT_TRUE(box.contains(r.x));
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.x[1], 1.0, 1e-5);
}

TEST(NelderMead, StartAtBoundaryStillMoves) {
  Box box({0.0}, {1.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    return (x[0] - 0.4) * (x[0] - 0.4);
  }, box, {1.0});
  EXPECT_NEAR(r.x[0], 0.4, 1e-6);
}

TEST(NelderMead, FourDimensionalSphere) {
  Box box({-2, -2, -2, -2}, {2, 2, 2, 2});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    double s = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - 0.3 * (static_cast<double>(i) + 1);
      s += d * d;
    }
    return s;
  }, box, {1, 1, 1, 1});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(r.x[i], 0.3 * (static_cast<double>(i) + 1), 1e-4);
  }
}

TEST(NelderMead, PiecewiseSmoothPenaltyShape) {
  // The exact shape the penalty solver feeds it: smooth objective plus a
  // one-sided quadratic wall.
  Box box({0.0}, {10.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    const double viol = std::max(0.0, 4.0 - x[0]);  // constraint x >= 4
    return x[0] + 1e4 * viol * viol;
  }, box, {8.0});
  EXPECT_NEAR(r.x[0], 4.0, 1e-2);
}

TEST(NelderMead, ReportsEvaluationCount) {
  Box box({-1.0}, {1.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    return x[0] * x[0];
  }, box, {0.5});
  EXPECT_GT(r.evaluations, 2);
  EXPECT_LT(r.evaluations, 2500);
}

}  // namespace
}  // namespace edb::opt
