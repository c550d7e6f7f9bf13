// Block-oracle contract tests: the batched grid flavours must be
// bit-identical to the scalar reference path — same argmin bits, same
// value bits, same evaluation count — the zoom refinement must not
// re-call the oracle on the inherited incumbent, a batched search
// allocates nothing per zoom round, and oracle_ns is timed only while the
// tracer is on.
#include "opt/batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "obs/trace.h"
#include "opt/bounds.h"
#include "opt/descent.h"
#include "opt/grid.h"
#include "opt/pareto.h"

// Every global operator new of this test binary counts itself, so a test
// can count the allocations a call makes.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// Out of line: inlined into their callers, the malloc/free pairs would
// draw gcc's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

TEST(GridRefineBatch, UlpWideAxisRepeatsTheIncumbent) {
  // On a one-ulp box every round re-opens the same window, and linspace
  // repeats its two ends, so each seeded round holds the incumbent on many
  // rows.  The batched pass must reuse the known value on every one of
  // them, like the scalar pass's bit compare.
  const double lo = 1.0;
  const double hi = std::nextafter(lo, 2.0);
  const Box box({lo}, {hi});
  const GridOptions opts{.points_per_dim = 33, .rounds = 4, .zoom = 0.2};
  for (const double low_value : {0.0, 2.0}) {
    const auto f = [&](const std::vector<double>& x) {
      return x[0] == lo ? low_value : 1.0;
    };
    auto scalar = grid_refine_min(f, box, opts);
    auto batch = grid_refine_min(batch_from_scalar(f), box, opts);
    expect_identical(scalar, batch);
    EXPECT_LT(scalar.evaluations, 33 * opts.rounds);  // repeats were skipped
    EXPECT_EQ(batch.blocks, opts.rounds);  // one block per round
  }
}

TEST(GridRefineBatch, IncumbentOnEitherSideOfAChunkBoundary) {
  // A 33 x 33 lattice is three chunks (rows 0-511, 512-1023, 1024-1088).
  // Round 0 spans the integers 0..32 on each axis.  With zoom 0.5, round 1
  // clips its window at the box edge so that the incumbent (a, b) lands on
  // axis indices (0, 0), (16, 15) or (17, 15): rows 0, 511 and 512 of
  // round 1 (row = i0 + 33 * i1).
  const Box box({0.0, 0.0}, {32.0, 32.0});
  const GridOptions opts{.points_per_dim = 33, .rounds = 3, .zoom = 0.5};
  struct Case {
    double a, b;
    std::vector<std::size_t> round1_blocks;
  };
  for (const Case& c : {Case{0, 0, {511, 512, 65}},
                        Case{16, 7, {511, 512, 65}},
                        Case{25, 7, {512, 511, 65}}}) {
    const auto f = [&c](const std::vector<double>& x) {
      return (x[0] - c.a) * (x[0] - c.a) + 2.0 * (x[1] - c.b) * (x[1] - c.b);
    };
    std::vector<std::size_t> blocks;
    int incumbent_calls = 0;
    const auto recording = [&](const PointBlock& b, double* values) {
      blocks.push_back(b.n);
      for (std::size_t i = 0; i < b.n; ++i) {
        const double* p = b.point(i);
        values[i] = f({p[0], p[1]});
        if (p[0] == c.a && p[1] == c.b) ++incumbent_calls;
      }
    };
    auto scalar = grid_refine_min(f, box, opts);
    auto batch = grid_refine_min(recording, box, opts);
    expect_identical(scalar, batch);
    EXPECT_EQ(batch.evaluations, 1089 + 2 * 1088);  // one row reused a round
    EXPECT_EQ(incumbent_calls, 1);  // evaluated in round 0 only
    ASSERT_EQ(blocks.size(), 9u);
    EXPECT_EQ(std::vector<std::size_t>(blocks.begin() + 3, blocks.begin() + 6),
              c.round1_blocks)
        << "incumbent (" << c.a << ", " << c.b << ")";
    EXPECT_EQ(batch.blocks, 9);
    EXPECT_TRUE(bits_eq(batch.x[0], c.a));
    EXPECT_TRUE(bits_eq(batch.x[1], c.b));
  }
}

// Allocations one batched grid_refine_min makes over a `dim`-D box.
long allocations_of_search(std::size_t dim, int rounds) {
  const Box box(std::vector<double>(dim, 0.0), std::vector<double>(dim, 10.0));
  const auto bowl = [](const PointBlock& b, double* values) {
    for (std::size_t i = 0; i < b.n; ++i) {
      double v = 0;
      for (std::size_t k = 0; k < b.dim; ++k) {
        const double d = b.point(i)[k] - 3.14159;
        v += d * d;
      }
      values[i] = v;
    }
  };
  const GridOptions opts{.points_per_dim = 33, .rounds = rounds, .zoom = 0.2};
  const long before = g_allocations.load();
  const VectorResult r = grid_refine_min(bowl, box, opts);
  const long made = g_allocations.load() - before;
  EXPECT_TRUE(r.converged);
  return made;
}

TEST(GridRefineBatch, ZoomRoundsDoNotAllocate) {
  for (const std::size_t dim : {1u, 2u}) {
    EXPECT_EQ(allocations_of_search(dim, 3), allocations_of_search(dim, 10))
        << dim << "-D";
  }
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
