// Block-oracle contract tests: the batched grid flavours must be
// bit-identical to the scalar reference path — same argmin bits, same
// value bits, same evaluation count — the zoom refinement must not
// re-call the oracle on the inherited incumbent, and oracle_ns is timed
// only while the tracer is on.
#include "opt/batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/trace.h"
#include "opt/bounds.h"
#include "opt/descent.h"
#include "opt/grid.h"
#include "opt/pareto.h"

namespace edb::opt {
namespace {

// Bitwise double equality with a hex-float failure message.
::testing::AssertionResult bits_eq(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "%a != %a", a, b);
  return ::testing::AssertionFailure() << buf;
}

void expect_identical(const VectorResult& scalar, const VectorResult& batch) {
  ASSERT_EQ(scalar.x.size(), batch.x.size());
  for (std::size_t i = 0; i < scalar.x.size(); ++i) {
    EXPECT_TRUE(bits_eq(scalar.x[i], batch.x[i])) << "x[" << i << "]";
  }
  EXPECT_TRUE(bits_eq(scalar.value, batch.value)) << "value";
  EXPECT_EQ(scalar.evaluations, batch.evaluations);
  EXPECT_EQ(scalar.converged, batch.converged);
}

double quadratic1(const std::vector<double>& x) {
  return (x[0] - 3.14159) * (x[0] - 3.14159);
}

double fenced1(const std::vector<double>& x) {
  // Infeasible fence left of 0.5, like the game framework's grid oracle.
  if (x[0] < 0.5) return std::numeric_limits<double>::infinity();
  return std::cos(7.0 * x[0]) + x[0];
}

double bowl2(const std::vector<double>& x) {
  return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0) +
         0.3 * std::sin(5.0 * x[0]) * std::cos(3.0 * x[1]);
}

TEST(BatchFromScalar, MatchesScalarOverBlock) {
  auto f = [](const std::vector<double>& x) { return x[0] * x[0] - x[0]; };
  BatchObjective bf = batch_from_scalar(f);
  const double xs[] = {-1.0, 0.0, 0.25, 1e9, -3.5};
  double values[5];
  bf(PointBlock{xs, 5, 1}, values);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bits_eq(values[i], f({xs[i]})));
  }
}

TEST(GridMinBatch, IdenticalToScalar1D) {
  Box box({0.0}, {10.0});
  auto scalar = grid_min(quadratic1, box, 101);
  auto batch = grid_min(batch_from_scalar(quadratic1), box, 101);
  expect_identical(scalar, batch);
  EXPECT_EQ(scalar.evaluations, 101);
  EXPECT_EQ(scalar.blocks, 0);  // scalar path never calls a block oracle
  EXPECT_GE(batch.blocks, 1);
}

TEST(GridMinBatch, IdenticalToScalar2DAcrossBlockBoundaries) {
  // 75^2 = 5625 lattice points: the batch path needs multiple blocks, so
  // chunk boundaries and the cross-block min-scan are exercised.
  Box box({-2.0, -2.5}, {2.5, 2.0});
  auto scalar = grid_min(bowl2, box, 75);
  auto batch = grid_min(batch_from_scalar(bowl2), box, 75);
  expect_identical(scalar, batch);
  EXPECT_GT(batch.blocks, 1);
}

TEST(GridMinBatch, TieBreaksLikeScalar) {
  // Plateau objective: many equal minima; both paths must keep the
  // earliest lattice point.
  auto flat = [](const std::vector<double>& x) {
    return x[0] < 4.0 ? 1.0 : 2.0;
  };
  Box box({0.0}, {10.0});
  auto scalar = grid_min(flat, box, 33);
  auto batch = grid_min(batch_from_scalar(flat), box, 33);
  expect_identical(scalar, batch);
  EXPECT_TRUE(bits_eq(scalar.x[0], 0.0));
}

TEST(GridRefineBatch, IdenticalToScalarSmooth1D) {
  Box box({0.0}, {10.0});
  const GridOptions opts{.points_per_dim = 33, .rounds = 10, .zoom = 0.2};
  auto scalar = grid_refine_min(quadratic1, box, opts);
  auto batch = grid_refine_min(batch_from_scalar(quadratic1), box, opts);
  expect_identical(scalar, batch);
  EXPECT_NEAR(scalar.x[0], 3.14159, 1e-6);
}

TEST(GridRefineBatch, IdenticalToScalarWithInfFence) {
  Box box({0.0}, {1.0});
  const GridOptions opts{.points_per_dim = 65, .rounds = 8, .zoom = 0.2};
  auto scalar = grid_refine_min(fenced1, box, opts);
  auto batch = grid_refine_min(batch_from_scalar(fenced1), box, opts);
  expect_identical(scalar, batch);
}

TEST(GridRefineBatch, IdenticalToScalar2D) {
  Box box({-5.0, -5.0}, {5.0, 5.0});
  const GridOptions opts{.points_per_dim = 17, .rounds = 12, .zoom = 0.25};
  auto scalar = grid_refine_min(bowl2, box, opts);
  auto batch = grid_refine_min(batch_from_scalar(bowl2), box, opts);
  expect_identical(scalar, batch);
}

TEST(GridRefine, DoesNotReevaluateInheritedIncumbent) {
  // The refined lattice is snapped to contain the previous round's
  // incumbent exactly, whose value is reused instead of re-calling the
  // oracle: an interior optimum costs P + (R-1)(P-1) evaluations, not RP.
  int calls = 0;
  auto counting = [&calls](const std::vector<double>& x) {
    ++calls;
    return (x[0] - 4.5) * (x[0] - 4.5);
  };
  Box box({0.0}, {10.0});
  const int per_dim = 33, rounds = 6;
  auto r = grid_refine_min(
      counting, box,
      {.points_per_dim = per_dim, .rounds = rounds, .zoom = 0.2});
  const int expected = per_dim + (rounds - 1) * (per_dim - 1);
  EXPECT_EQ(calls, expected);
  EXPECT_EQ(r.evaluations, expected);
  EXPECT_NEAR(r.x[0], 4.5, 1e-6);

  // Same economy on the batched flavour, same count.
  int batch_calls = 0;
  BatchObjective bf = [&batch_calls](const PointBlock& b, double* values) {
    batch_calls += static_cast<int>(b.n);
    for (std::size_t i = 0; i < b.n; ++i) {
      const double d = b.point(i)[0] - 4.5;
      values[i] = d * d;
    }
  };
  auto rb = grid_refine_min(
      bf, box, {.points_per_dim = per_dim, .rounds = rounds, .zoom = 0.2});
  EXPECT_EQ(batch_calls, expected);
  EXPECT_EQ(rb.evaluations, expected);
  expect_identical(r, rb);
}

// Runs `solve` with the tracer switch at `on`, then restores the switch.
// oracle_ns is timed only while the tracer is on (call_oracle).
template <typename Solve>
VectorResult with_tracer(bool on, Solve solve) {
  const bool was = obs::Tracer::enabled();
  obs::Tracer::set_enabled(on);
  VectorResult r = solve();
  obs::Tracer::set_enabled(was);
  return r;
}

VectorResult refine_quadratic() {
  return grid_refine_min(batch_from_scalar(quadratic1), Box({0.0}, {10.0}),
                         {.points_per_dim = 33, .rounds = 4, .zoom = 0.2});
}

VectorResult descend_bowl() {
  return bdca_multistart_min(batch_from_scalar(bowl2),
                             Box({-3.0, -3.0}, {3.0, 3.0}));
}

TEST(GridRefineBatch, ReportsBlocksAndNoOracleTimeUntraced) {
  const VectorResult r = with_tracer(false, refine_quadratic);
  EXPECT_GE(r.blocks, 4);  // at least one block per round
  EXPECT_EQ(r.oracle_ns, 0.0);
}

TEST(GridRefineBatch, ReportsOracleTimeWhileTracing) {
  const VectorResult r = with_tracer(true, refine_quadratic);
  EXPECT_GE(r.blocks, 4);
  EXPECT_GT(r.oracle_ns, 0.0);
}

TEST(BdcaMultistartBatch, OracleTimeFollowsTheTracerSwitch) {
  const VectorResult off = with_tracer(false, descend_bowl);
  const VectorResult on = with_tracer(true, descend_bowl);
  EXPECT_GT(off.blocks, 0);
  EXPECT_EQ(off.oracle_ns, 0.0);
  EXPECT_GT(on.oracle_ns, 0.0);
  expect_identical(off, on);  // the timing never feeds back
  EXPECT_EQ(off.blocks, on.blocks);
}

TEST(TraceFrontierBatch, IdenticalToScalar) {
  auto f1 = [](const std::vector<double>& x) { return x[0] * x[0]; };
  auto f2 = [](const std::vector<double>& x) { return (x[0] - 3.0) * (x[0] - 3.0); };
  auto feas = [](const std::vector<double>& x) { return 2.5 - x[0]; };
  Box box({0.0}, {4.0});
  constexpr int kPointsPerDim = 700;  // > one block
  auto scalar = trace_frontier(f1, f2, box, feas, kPointsPerDim);
  auto batch =
      trace_frontier(batch_from_scalar(f1), batch_from_scalar(f2), box,
                     batch_from_scalar(feas), kPointsPerDim);
  ASSERT_EQ(scalar.size(), batch.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_TRUE(bits_eq(scalar[i].f1, batch[i].f1));
    EXPECT_TRUE(bits_eq(scalar[i].f2, batch[i].f2));
    ASSERT_EQ(scalar[i].x.size(), batch[i].x.size());
    EXPECT_TRUE(bits_eq(scalar[i].x[0], batch[i].x[0]));
  }
}

}  // namespace
}  // namespace edb::opt
