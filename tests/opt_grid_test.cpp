#include "opt/grid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace edb::opt {
namespace {

TEST(GridMin, Quadratic1D) {
  Box box({0.0}, {10.0});
  auto r = grid_min([](const std::vector<double>& x) {
    return (x[0] - 3.0) * (x[0] - 3.0);
  }, box, 101);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 3.0, 0.1);
  EXPECT_EQ(r.evaluations, 101);
}

TEST(GridMin, Rosenbrock2DFindsValleyRegion) {
  Box box({-2.0, -2.0}, {2.0, 2.0});
  auto r = grid_min([](const std::vector<double>& x) {
    const double a = 1 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100 * b * b;
  }, box, 41);
  EXPECT_EQ(r.evaluations, 41 * 41);
  EXPECT_LT(r.value, 1.0);
}

TEST(GridRefine, ConvergesToMachinePrecisionOnSmooth1D) {
  Box box({0.0}, {10.0});
  auto r = grid_refine_min([](const std::vector<double>& x) {
    return (x[0] - 3.14159) * (x[0] - 3.14159);
  }, box, {.points_per_dim = 33, .rounds = 10, .zoom = 0.2});
  EXPECT_NEAR(r.x[0], 3.14159, 1e-6);
}

TEST(GridRefine, Converges2D) {
  Box box({-5.0, -5.0}, {5.0, 5.0});
  auto r = grid_refine_min([](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  }, box, {.points_per_dim = 17, .rounds = 12, .zoom = 0.25});
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.x[1], -2.0, 1e-5);
}

TEST(GridRefine, EscapesLocalMinimumVisibleAtGridResolution) {
  // Two wells: a shallow one at 0.2 and a deep one at 0.8.
  auto f = [](const std::vector<double>& x) {
    const double d1 = x[0] - 0.2;
    const double d2 = x[0] - 0.8;
    return std::min(0.5 + 50 * d1 * d1, 100 * d2 * d2);
  };
  Box box({0.0}, {1.0});
  auto r = grid_refine_min(f, box, {.points_per_dim = 33, .rounds = 8,
                                    .zoom = 0.2});
  EXPECT_NEAR(r.x[0], 0.8, 1e-6);
  EXPECT_NEAR(r.value, 0.0, 1e-9);
}

TEST(GridRefine, HandlesInfiniteRegionsAsFences) {
  // Infeasible fence: +inf left of 0.5; minimum at the fence edge.
  auto f = [](const std::vector<double>& x) {
    if (x[0] < 0.5) return std::numeric_limits<double>::infinity();
    return x[0];
  };
  Box box({0.0}, {1.0});
  auto r = grid_refine_min(f, box, {.points_per_dim = 65, .rounds = 8,
                                    .zoom = 0.2});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.5, 1e-3);
}

TEST(GridMin, MinimumAtBoxCorner) {
  Box box({0.0, 0.0}, {1.0, 1.0});
  auto r = grid_min([](const std::vector<double>& x) {
    return -(x[0] + x[1]);
  }, box, 11);
  EXPECT_DOUBLE_EQ(r.x[0], 1.0);
  EXPECT_DOUBLE_EQ(r.x[1], 1.0);
}

constexpr double kInfValue = std::numeric_limits<double>::infinity();

TEST(OneBasin, NoFiniteValueIsNotOneBasin) {
  EXPECT_FALSE(one_basin({}));
  EXPECT_FALSE(one_basin({kInfValue, kInfValue, kInfValue}));
}

TEST(OneBasin, OneRunWithAnInteriorMinimum) {
  EXPECT_TRUE(one_basin({kInfValue, 5.0, 3.0, 1.0, 2.0, 4.0, kInfValue}));
  EXPECT_TRUE(one_basin({5.0, 3.0, 1.0, 2.0, 4.0}));
}

TEST(OneBasin, MonotoneRunWithTheMinimumAtAnEdge) {
  EXPECT_TRUE(one_basin({1.0, 2.0, 3.0, kInfValue}));
  EXPECT_TRUE(one_basin({kInfValue, kInfValue, 4.0, 3.0, 2.0}));
}

TEST(OneBasin, TwoFiniteRunsSplitByInfinity) {
  EXPECT_FALSE(one_basin({3.0, 2.0, kInfValue, 1.0, 2.0}));
  EXPECT_FALSE(one_basin({kInfValue, 1.0, kInfValue, 2.0, kInfValue}));
}

TEST(OneBasin, TwoLocalMinimaInOneRun) {
  EXPECT_FALSE(one_basin({3.0, 1.0, 2.0, 0.5, 4.0}));
  EXPECT_FALSE(one_basin({kInfValue, 2.0, 1.0, 3.0, 2.5, kInfValue}));
}

TEST(OneBasin, PlateauOrTieIsNotOneBasin) {
  EXPECT_FALSE(one_basin({3.0, 1.0, 1.0, 2.0}));  // tied minimum
  EXPECT_FALSE(one_basin({3.0, 2.0, 2.0, 1.0}));  // plateau on the way down
  EXPECT_FALSE(one_basin({1.0, 2.0, 2.0, 3.0}));  // plateau on the way up
  EXPECT_FALSE(one_basin({2.0, 2.0}));
}

// A 1-D fence with an infeasible left end, the shape dual_solve's stage 1
// scans: +inf below 0.3, a smooth well at 0.62 above it.
void fence_block(const PointBlock& b, double* values) {
  for (std::size_t i = 0; i < b.n; ++i) {
    const double x = b.point(i)[0];
    values[i] = x < 0.3 ? kInfValue : (x - 0.62) * (x - 0.62) + 0.1 * x;
  }
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(GridRefineFirstRound, HandingBackRoundZeroLeavesTheSearchUnchanged) {
  const Box box({0.0}, {1.0});
  const GridOptions opts{.points_per_dim = 65, .rounds = 3, .zoom = 0.15};
  const auto plain = grid_refine_min(fence_block, box, opts);
  std::vector<double> first = {42.0};  // stale contents are replaced
  const auto kept = grid_refine_min(fence_block, box, opts, &first);
  ASSERT_EQ(plain.x.size(), 1u);
  ASSERT_EQ(kept.x.size(), 1u);
  EXPECT_TRUE(bits_equal(plain.x[0], kept.x[0]));
  EXPECT_TRUE(bits_equal(plain.value, kept.value));
  EXPECT_EQ(plain.evaluations, kept.evaluations);
  EXPECT_EQ(plain.blocks, kept.blocks);
  EXPECT_EQ(first.size(), 65u);
}

TEST(GridRefineFirstRound, RoundZeroEqualsAGridMinPassOverTheSameLattice) {
  const Box box({0.0}, {1.0});
  std::vector<double> first;
  grid_refine_min(fence_block, box,
                  {.points_per_dim = 65, .rounds = 3, .zoom = 0.15}, &first);
  // Record every value a single grid_min pass sees, in lattice order.
  std::vector<double> seen;
  grid_min(
      [&seen](const PointBlock& b, double* values) {
        fence_block(b, values);
        seen.insert(seen.end(), values, values + b.n);
      },
      box, 65);
  ASSERT_EQ(first.size(), seen.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(bits_equal(first[i], seen[i])) << "lattice point " << i;
  }
  EXPECT_TRUE(one_basin(first));
}

}  // namespace
}  // namespace edb::opt
