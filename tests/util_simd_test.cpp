// Lane-wrapper semantics (util/simd.h): every lane operation of
// DoubleLanes and OneLane must carry exactly the IEEE-754 double the
// scalar expression produces — asserted bit-for-bit in hex-float — plus
// the no-FMA rule and its end-to-end consequence: the three paper
// kernels match the scalar entry points on every lane, for every block
// length from 1 to two full lane blocks plus one.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "mac/registry.h"

namespace edb {
namespace {

using util::DoubleLanes;
constexpr std::size_t W = DoubleLanes::kWidth;

::testing::AssertionResult bits_eq(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "%a != %a", a, b);
  return ::testing::AssertionFailure() << buf;
}

// Values chosen to stress rounding, signed zeros, subnormals and range
// extremes — anywhere a vector unit could plausibly diverge from scalar.
const std::vector<double> kTricky = {
    0.0,        -0.0,      1.0,          -1.0,     0.5,
    1.0 + 0x1p-52,         1.0 - 0x1p-53,          0x1p-1074,
    -0x1p-1074, 1e-308,    1e308,        -1e308,   1.0 / 3.0,
    3.0,        6.02e23,   -2.5e-7,      0.015625, 42.0};

TEST(UtilSimd, BackendAndWidthAreCoherent) {
  RecordProperty("backend", util::simd_backend());
  EXPECT_GE(W, 2u);
  const std::string backend = util::simd_backend();
  EXPECT_TRUE(backend == "avx2" || backend == "neon" || backend == "scalar");
}

// The lane contract, run over the hardware lanes and the width-1 lanes
// that for_lanes uses for remainders.
template <class L>
class LaneContract : public ::testing::Test {};
using LaneTypes = ::testing::Types<util::DoubleLanes, util::OneLane>;
TYPED_TEST_SUITE(LaneContract, LaneTypes);

TYPED_TEST(LaneContract, LoadStoreBroadcastRoundTrip) {
  using L = TypeParam;
  constexpr std::size_t w = L::kWidth;
  std::vector<double> buf = kTricky;
  buf.resize(((buf.size() + w - 1) / w) * w, 7.25);
  std::vector<double> out(w);
  for (std::size_t off = 0; off + w <= buf.size(); off += w) {
    const L v = L::load(buf.data() + off);
    v.store(out.data());
    for (std::size_t k = 0; k < w; ++k) {
      EXPECT_TRUE(bits_eq(out[k], buf[off + k])) << "store lane " << k;
      EXPECT_TRUE(bits_eq(v.lane(k), buf[off + k])) << "lane() " << k;
    }
  }
  for (double c : kTricky) {
    const L b = L::broadcast(c);
    for (std::size_t k = 0; k < w; ++k) {
      EXPECT_TRUE(bits_eq(b.lane(k), c)) << "broadcast lane " << k;
    }
  }
}

TYPED_TEST(LaneContract, ArithmeticMatchesScalarPerLane) {
  using L = TypeParam;
  constexpr std::size_t w = L::kWidth;
  const std::size_t n = kTricky.size();
  std::vector<double> av(w), bv(w);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Rotate the cases through the lanes so every lane carries a
      // different operand pair on every (i, j) visit.
      for (std::size_t k = 0; k < w; ++k) {
        av[k] = kTricky[(i + k) % n];
        bv[k] = kTricky[(j + k) % n];
      }
      const L a = L::load(av.data());
      const L b = L::load(bv.data());
      for (std::size_t k = 0; k < w; ++k) {
        EXPECT_TRUE(bits_eq((a + b).lane(k), av[k] + bv[k])) << "+";
        EXPECT_TRUE(bits_eq((a - b).lane(k), av[k] - bv[k])) << "-";
        EXPECT_TRUE(bits_eq((a * b).lane(k), av[k] * bv[k])) << "*";
        EXPECT_TRUE(bits_eq((a / b).lane(k), av[k] / bv[k])) << "/";
        EXPECT_TRUE(
            bits_eq(util::min(a, b).lane(k), std::min(av[k], bv[k])))
            << "min";
        EXPECT_TRUE(
            bits_eq(util::max(a, b).lane(k), std::max(av[k], bv[k])))
            << "max";
      }
    }
  }
}

TYPED_TEST(LaneContract, MinMaxTiesAndSignedZerosMatchStd) {
  // std::min/std::max are selects — min(a,b) returns a on ties, including
  // the +0/-0 tie where the hardware min/max instructions disagree.
  using L = TypeParam;
  const double pz = 0.0, nz = -0.0;
  struct Case {
    double a, b;
  };
  for (const Case& c : {Case{pz, nz}, Case{nz, pz}, Case{1.0, 1.0},
                        Case{nz, nz}, Case{pz, pz}}) {
    const L a = L::broadcast(c.a);
    const L b = L::broadcast(c.b);
    for (std::size_t k = 0; k < L::kWidth; ++k) {
      EXPECT_TRUE(bits_eq(util::min(a, b).lane(k), std::min(c.a, c.b)));
      EXPECT_TRUE(bits_eq(util::max(a, b).lane(k), std::max(c.a, c.b)));
    }
  }
}

TYPED_TEST(LaneContract, NoFusedMultiplyAdd) {
  // a*a keeps a 2^-60 tail that separate rounding must drop; an fma
  // would keep it.  Both the lane expression and the scalar reference
  // (compiled with -ffp-contract=off) must round separately.
  using L = TypeParam;
  const double a = 1.0 + 0x1p-30;
  const double prod = a * a;  // 1 + 2^-29 exactly: the 2^-60 tail rounds off
  EXPECT_EQ(std::fma(a, a, -prod), 0x1p-60);  // the tail an FMA would keep
  EXPECT_TRUE(bits_eq(a * a - prod, 0.0));    // scalar reference: no fuse
  const L r = L::broadcast(a) * L::broadcast(a) - L::broadcast(prod);
  for (std::size_t k = 0; k < L::kWidth; ++k) {
    EXPECT_TRUE(bits_eq(r.lane(k), 0.0)) << "lane " << k;
  }
}

TEST(UtilSimd, ForLanesVisitsEveryIndexOnce) {
  // Full DoubleLanes blocks first, then one OneLane call per remainder
  // index: every index of [0, n) is covered exactly once.
  for (std::size_t n = 0; n <= 3 * W + 1; ++n) {
    std::vector<int> hits(n, 0);
    std::size_t blocks = 0;
    util::for_lanes(n, [&](auto lanes, std::size_t i) {
      using L = decltype(lanes);
      if (std::is_same_v<L, DoubleLanes>) ++blocks;
      for (std::size_t k = 0; k < L::kWidth; ++k) ++hits[i + k];
    });
    EXPECT_EQ(blocks, n / W) << "n = " << n;
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(n))
        << "n = " << n;
  }
}

void expect_kernel_scalar_parity(const mac::ModelContext& ctx,
                                 const std::string& tag) {
  for (const auto& name : mac::paper_protocols()) {
    SCOPED_TRACE(tag);
    auto model = mac::make_model(name, ctx).take();
    ASSERT_EQ(model->params().dim(), 1u) << name;
    const double lo = model->params().lower()[0];
    const double hi = model->params().upper()[0];

    const std::size_t n = 257;
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = lo + (hi - lo) * static_cast<double>(i) /
                       static_cast<double>(n - 1);
    }
    std::vector<double> e(n), l(n), m(n);
    model->evaluate_batch(xs.data(), n, e.data(), l.data(), m.data());
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double> x = {xs[i]};
      EXPECT_TRUE(bits_eq(e[i], model->energy(x))) << name << " E @ " << i;
      EXPECT_TRUE(bits_eq(l[i], model->latency(x))) << name << " L @ " << i;
      EXPECT_TRUE(bits_eq(m[i], model->feasibility_margin(x)))
          << name << " margin @ " << i;
    }

    std::vector<double> e2(n - 1), l2(n - 1), m2(n - 1);
    model->evaluate_batch(xs.data() + 1, n - 1, e2.data(), l2.data(),
                          m2.data());
    for (std::size_t i = 0; i + 1 < n; ++i) {
      EXPECT_TRUE(bits_eq(e2[i], e[i + 1])) << name << " offset E @ " << i;
      EXPECT_TRUE(bits_eq(l2[i], l[i + 1])) << name << " offset L @ " << i;
      EXPECT_TRUE(bits_eq(m2[i], m[i + 1])) << name << " offset m @ " << i;
    }

    // Every block length 1 .. 2W+1: no full block, one or two blocks, and
    // every remainder length in between (the solvers' stencils are
    // shorter than one block).  The start offset k varies the alignment.
    for (std::size_t k = 1; k <= 2 * W + 1; ++k) {
      std::vector<double> ek(k), lk(k), mk(k);
      model->evaluate_batch(xs.data() + k, k, ek.data(), lk.data(),
                            mk.data());
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_TRUE(bits_eq(ek[i], e[k + i])) << name << " n=" << k << " E";
        EXPECT_TRUE(bits_eq(lk[i], l[k + i])) << name << " n=" << k << " L";
        EXPECT_TRUE(bits_eq(mk[i], m[k + i])) << name << " n=" << k << " m";
      }
    }
  }
}

TEST(UtilSimd, PaperKernelsMatchScalarEntryPoints) {
  // End-to-end: the X-MAC/DMAC/LMAC batch kernels stay bit-identical to
  // the scalar model calls.  n = 257 exercises full lane blocks plus a
  // remainder for every supported width; the off-by-one slice exercises
  // unaligned loads; the short blocks exercise every remainder length.
  expect_kernel_scalar_parity(mac::ModelContext{}, "kV1");
}

TEST(UtilSimd, KV2QueueingKernelsMatchScalarEntryPoints) {
  // Same end-to-end contract with the M/G/1 term and stability fence
  // live in the lanes, across every arrival shape.
  struct Shape {
    const char* label;
    net::ArrivalProcess arrivals;
    double burst_factor;
    double jitter_frac;
  };
  for (const Shape& s :
       {Shape{"periodic", net::ArrivalProcess::kPeriodic, 1.0, 0.3},
        Shape{"poisson", net::ArrivalProcess::kPoisson, 1.0, 0.1},
        Shape{"bursty", net::ArrivalProcess::kBursty, 8.0, 0.1}}) {
    mac::ModelContext ctx;
    ctx.model_version = mac::ModelVersion::kV2Queueing;
    ctx.arrivals = s.arrivals;
    ctx.burst_factor = s.burst_factor;
    ctx.jitter_frac = s.jitter_frac;
    expect_kernel_scalar_parity(ctx, std::string("kV2/") + s.label);
  }
}

}  // namespace
}  // namespace edb
