#include "opt/penalty.h"

#include <gtest/gtest.h>

#include <cmath>

namespace edb::opt {
namespace {

TEST(Penalty, LinearObjectiveSingleConstraint) {
  // min x  s.t.  x >= 4  ->  x* = 4.
  Box box({0.0}, {10.0});
  auto r = constrained_min(
      [](const std::vector<double>& x) { return x[0]; },
      {[](const std::vector<double>& x) { return x[0] - 4.0; }}, box);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.x[0], 4.0, 1e-3);
}

TEST(Penalty, UnconstrainedInteriorOptimum) {
  // Constraint inactive at the optimum.
  Box box({0.0}, {10.0});
  auto r = constrained_min(
      [](const std::vector<double>& x) {
        return (x[0] - 2.0) * (x[0] - 2.0);
      },
      {[](const std::vector<double>& x) { return 8.0 - x[0]; }}, box);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.x[0], 2.0, 1e-5);
  EXPECT_NEAR(r.worst_violation, 0.0, 1e-12);
}

TEST(Penalty, TwoConstraints2D) {
  // min x + y  s.t.  x + y >= 1, x >= 0.25.
  Box box({0.0, 0.0}, {2.0, 2.0});
  auto r = constrained_min(
      [](const std::vector<double>& x) { return x[0] + x[1]; },
      {
          [](const std::vector<double>& x) { return x[0] + x[1] - 1.0; },
          [](const std::vector<double>& x) { return x[0] - 0.25; },
      },
      box);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.value, 1.0, 1e-3);
  EXPECT_GE(r.x[0], 0.25 - 1e-4);
}

TEST(Penalty, InfeasibleProblemReportsNoFeasiblePoint) {
  // x >= 5 conflicts with x <= 1 (as slack 1 - x >= 0).  The result is
  // the least-violating point, marked infeasible, and it still reports
  // what the search cost.
  Box box({0.0}, {10.0});
  auto r = constrained_min(
      [](const std::vector<double>& x) { return x[0]; },
      {
          [](const std::vector<double>& x) { return x[0] - 5.0; },
          [](const std::vector<double>& x) { return 1.0 - x[0]; },
      },
      box);
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.worst_violation, 1e-7);  // constrained_min's tolerance
  EXPECT_GT(r.evaluations, 0);
}

TEST(Penalty, NonConvexObjectiveMultistartFindsGlobal) {
  // Deep well at 0.8 hidden behind a shallow one at 0.2 (feasible side).
  Box box({0.0}, {1.0});
  auto f = [](const std::vector<double>& x) {
    const double d1 = x[0] - 0.2;
    const double d2 = x[0] - 0.8;
    return std::min(0.5 + 50 * d1 * d1, 100 * d2 * d2);
  };
  auto r = constrained_min(
      f, {[](const std::vector<double>& x) { return x[0]; }}, box);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.x[0], 0.8, 1e-2);
}

TEST(Penalty, MimicsP1Structure) {
  // min E(x) = 1/x + 0.1 x  s.t.  L(x) = 5x <= 12  (i.e. slack (12-5x)/12),
  // plus a "protocol margin" that is always positive.  Unconstrained min at
  // x = sqrt(10) ≈ 3.16 > 12/5 = 2.4, so the bound binds: x* = 2.4.
  Box box({0.1}, {10.0});
  auto r = constrained_min(
      [](const std::vector<double>& x) { return 1.0 / x[0] + 0.1 * x[0]; },
      {
          [](const std::vector<double>& x) {
            return (12.0 - 5.0 * x[0]) / 12.0;
          },
          [](const std::vector<double>&) { return 0.5; },
      },
      box);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.x[0], 2.4, 1e-2);
}

}  // namespace
}  // namespace edb::opt
