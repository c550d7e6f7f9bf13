// Property tests for the kV2Queueing ring-as-server M/G/1 latency term
// (mac/model.h): nonnegativity, monotonicity in utilization, the
// vanishing-load limit, the exact v1-plus-queue decomposition, and the
// utilization-stability fence — saturated operating points must surface
// as infeasible through the solver's fenced margin stage, never as a
// finite-but-nonsense latency, for every registered protocol.
#include "mac/model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/game_framework.h"
#include "core/scenario.h"
#include "mac/dmac.h"
#include "mac/lmac.h"
#include "mac/registry.h"
#include "mac/xmac.h"
#include "util/math.h"

namespace edb {
namespace {

// A paper-default context at the given fidelity/arrival shape.
mac::ModelContext make_ctx(mac::ModelVersion version,
                           net::ArrivalProcess arrivals =
                               net::ArrivalProcess::kBursty,
                           double burst_factor = 4.0, double fs = 6.5e-5) {
  mac::ModelContext ctx = core::Scenario::paper_default().context;
  ctx.model_version = version;
  ctx.arrivals = arrivals;
  ctx.burst_factor = burst_factor;
  ctx.fs = fs;
  return ctx;
}

std::vector<std::unique_ptr<mac::AnalyticMacModel>> paper_models(
    const mac::ModelContext& ctx) {
  std::vector<std::unique_ptr<mac::AnalyticMacModel>> out;
  for (const auto& name : mac::paper_protocols()) {
    auto made = mac::make_model(name, ctx);
    EXPECT_TRUE(made.ok()) << name;
    out.push_back(std::move(made).take());
  }
  return out;
}

TEST(MacQueueing, DelayIsNonnegativeAcrossTheBox) {
  const auto ctx = make_ctx(mac::ModelVersion::kV2Queueing);
  for (const auto& model : paper_models(ctx)) {
    const auto& space = model->params();
    for (double f : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
      std::vector<double> x(space.dim());
      for (std::size_t i = 0; i < space.dim(); ++i) {
        const auto& info = space.info(i);
        x[i] = info.lo + f * (info.hi - info.lo);
      }
      EXPECT_GE(model->queueing_delay(x), 0.0)
          << model->name() << " at fraction " << f;
    }
  }
}

TEST(MacQueueing, DelayIsMonotoneNondecreasingInUtilization) {
  // Utilization rho_d = ring_load(d) * s_d scales linearly with fs, so
  // walking fs upward at a fixed operating point walks rho upward.  The
  // ladder stops short of rho_1 = 1 at the midpoints (DMAC's midpoint
  // cycle saturates first) — past it the M/G/1 form is meaningless and
  // the stability fence owns the regime.
  for (std::size_t p = 0; p < 3; ++p) {
    double prev = -1.0;
    for (double fs : {1e-5, 5e-5, 1e-4, 2e-4, 5e-4}) {
      const auto ctx = make_ctx(mac::ModelVersion::kV2Queueing,
                                net::ArrivalProcess::kBursty, 4.0, fs);
      const auto models = paper_models(ctx);
      const auto& model = *models[p];
      const double q = model.queueing_delay(model.params().midpoint());
      EXPECT_GE(q, prev) << model.name() << " at fs " << fs;
      prev = q;
    }
  }
}

TEST(MacQueueing, DelayVanishesAsLoadGoesToZero) {
  for (std::size_t p = 0; p < 3; ++p) {
    double prev = kInf;
    for (double fs : {1e-4, 1e-5, 1e-6, 1e-8, 1e-10}) {
      const auto ctx = make_ctx(mac::ModelVersion::kV2Queueing,
                                net::ArrivalProcess::kBursty, 8.0, fs);
      const auto models = paper_models(ctx);
      const auto& model = *models[p];
      const double q = model.queueing_delay(model.params().midpoint());
      EXPECT_LE(q, prev) << model.name() << " at fs " << fs;
      prev = q;
    }
    EXPECT_LT(prev, 1e-5);
  }
}

TEST(MacQueueing, V2LatencyIsExactlyV1PlusQueueingDelay) {
  // The base latency appends the queueing term as one final addend, so
  // the decomposition holds bit-exactly, not just approximately.
  const auto v1_ctx = make_ctx(mac::ModelVersion::kV1);
  const auto v2_ctx = make_ctx(mac::ModelVersion::kV2Queueing);
  const auto v1_models = paper_models(v1_ctx);
  const auto v2_models = paper_models(v2_ctx);
  for (std::size_t p = 0; p < 3; ++p) {
    const auto x = v1_models[p]->params().midpoint();
    EXPECT_DOUBLE_EQ(
        v2_models[p]->latency(x),
        v1_models[p]->latency(x) + v2_models[p]->queueing_delay(x))
        << v1_models[p]->name();
  }
}

TEST(MacQueueing, JitterFreePeriodicArrivalsAddNoDelay) {
  // Ca^2 = 0: the M/G/1 term is identically zero, so kV2 latency
  // degenerates to kV1's.
  auto ctx = make_ctx(mac::ModelVersion::kV2Queueing,
                      net::ArrivalProcess::kPeriodic, 1.0);
  ctx.jitter_frac = 0.0;
  for (const auto& model : paper_models(ctx)) {
    const auto x = model->params().midpoint();
    EXPECT_DOUBLE_EQ(model->queueing_delay(x), 0.0) << model->name();
  }
}

TEST(MacQueueing, StabilityFenceTightensV1Margins) {
  // v2-feasible implies v1-feasible: the v2 margin is the min of the v1
  // margin and the stability slack.
  const auto v1_ctx = make_ctx(mac::ModelVersion::kV1);
  const auto v2_ctx = make_ctx(mac::ModelVersion::kV2Queueing);
  const auto v1_models = paper_models(v1_ctx);
  const auto v2_models = paper_models(v2_ctx);
  for (std::size_t p = 0; p < 3; ++p) {
    const auto& space = v1_models[p]->params();
    for (double f : {0.05, 0.25, 0.5, 0.75, 0.95}) {
      std::vector<double> x(space.dim());
      for (std::size_t i = 0; i < space.dim(); ++i) {
        const auto& info = space.info(i);
        x[i] = info.lo + f * (info.hi - info.lo);
      }
      EXPECT_LE(v2_models[p]->feasibility_margin(x),
                v1_models[p]->feasibility_margin(x))
          << v1_models[p]->name() << " at fraction " << f;
    }
  }
}

// A DMAC deployment riding the saturation boundary: the cycle box is
// pinned so bottleneck utilization rho_1 = ring_load(1) * T sits inside
// (kQueueStabilityCap, 1) across the entire box — v1-feasible (its
// capacity margin f_out(1) * T <= k_chain has orders of magnitude of
// slack there), but past the v2 stability cap.
struct SaturatedDmac {
  mac::ModelContext ctx;
  mac::DmacConfig cfg;

  explicit SaturatedDmac(mac::ModelVersion version) {
    ctx = make_ctx(version, net::ArrivalProcess::kBursty, 4.0);
    cfg = mac::DmacModel::default_config(ctx);
    // With one contended data slot per cycle the ring drains a packet per
    // T, so rho crosses the cap at T* = cap / ring_load(1).  Pin the box
    // to [1.005, 1.045] * T* — strictly inside (cap, 1).
    const double t_star =
        mac::kQueueStabilityCap / ctx.traffic().ring_load(1);
    cfg.t_cycle_min = 1.005 * t_star;
    cfg.t_cycle_max = 1.045 * t_star;
  }
};

TEST(MacQueueing, SaturatedBoxIsV1FeasibleButV2Fenced) {
  SaturatedDmac v1(mac::ModelVersion::kV1);
  SaturatedDmac v2(mac::ModelVersion::kV2Queueing);
  const mac::DmacModel v1_model(v1.ctx, v1.cfg);
  const mac::DmacModel v2_model(v2.ctx, v2.cfg);
  for (double f : {0.0, 0.5, 1.0}) {
    const auto& space = v1_model.params();
    std::vector<double> x{space.info(0).lo +
                          f * (space.info(0).hi - space.info(0).lo)};
    EXPECT_GT(v1_model.feasibility_margin(x), 0.0) << "fraction " << f;
    EXPECT_LE(v2_model.feasibility_margin(x), 0.0) << "fraction " << f;
    // The batch kernel agrees with the scalar margin on both sides.
    double m = 0;
    v2_model.evaluate_batch(x.data(), 1, nullptr, nullptr, &m);
    EXPECT_EQ(m, v2_model.feasibility_margin(x));
  }
}

TEST(MacQueueing, SaturationReportsInfeasibleThroughTheSolverFence) {
  // The whole pipeline answer: at kV1 the saturated box solves; at
  // kV2Queueing the fenced margin stage leaves no live lane and the
  // energy player reports kInfeasible — not a finite latency.
  core::AppRequirements req;
  req.e_budget = 10.0;   // generous: only the stability fence can bite
  req.l_max = 1e6;

  SaturatedDmac v1(mac::ModelVersion::kV1);
  const mac::DmacModel v1_model(v1.ctx, v1.cfg);
  core::EnergyDelayGame v1_game(v1_model, req);
  const auto v1_solve = v1_game.solve_p1();
  ASSERT_TRUE(v1_solve.ok());
  EXPECT_TRUE(std::isfinite(v1_solve.value().latency));

  SaturatedDmac v2(mac::ModelVersion::kV2Queueing);
  const mac::DmacModel v2_model(v2.ctx, v2.cfg);
  core::EnergyDelayGame v2_game(v2_model, req);
  const auto v2_solve = v2_game.solve_p1();
  ASSERT_FALSE(v2_solve.ok());
  EXPECT_EQ(v2_solve.error().code, ErrorCode::kInfeasible);
}

TEST(MacQueueing, EveryProtocolFencesDenseDeployments) {
  // Dense, fast-sampling deployments push the bottleneck ring past the
  // stability cap over much of every box.  Under kV2Queueing no
  // margin-feasible point of any registered protocol may sit there, its
  // latency (scalar and batch) must be positive wherever the margin
  // admits it, and the delay player's P2 optimum must be a positive
  // latency.
  core::AppRequirements req;
  req.e_budget = 10.0;  // generous: P2 is bounded by the fence alone
  req.l_max = 1e6;
  std::size_t fenced = 0;
  for (const double density : {7.0, 12.0, 20.0}) {
    for (const auto arrivals :
         {net::ArrivalProcess::kPeriodic, net::ArrivalProcess::kBursty}) {
      mac::ModelContext ctx = make_ctx(mac::ModelVersion::kV2Queueing,
                                       arrivals, 4.0, 2e-3);
      ctx.ring.density = density;
      const double load1 = ctx.traffic().ring_load(1);
      for (const auto& name : mac::registered_protocols()) {
        auto made = mac::make_model(name, ctx);
        if (!made.ok()) continue;  // not every protocol fits every context
        const auto model = std::move(made).take();
        const auto& space = model->params();
        // A 33-point lattice per axis, cartesian over the box.
        std::vector<std::vector<double>> points{{}};
        for (std::size_t a = 0; a < space.dim(); ++a) {
          std::vector<std::vector<double>> next;
          for (const auto& prefix : points) {
            for (double v : linspace(space.info(a).lo, space.info(a).hi, 33)) {
              next.push_back(prefix);
              next.back().push_back(v);
            }
          }
          points = std::move(next);
        }
        std::vector<double> xs;
        for (const auto& x : points) xs.insert(xs.end(), x.begin(), x.end());
        std::vector<double> lat(points.size()), margin(points.size());
        model->evaluate_batch(xs.data(), points.size(), nullptr, lat.data(),
                              margin.data());
        const std::string label =
            name + " density " + std::to_string(static_cast<int>(density));
        for (std::size_t i = 0; i < points.size(); ++i) {
          const double rho1 = load1 * model->ring_service_quantum(points[i], 1);
          if (rho1 >= mac::kQueueStabilityCap) ++fenced;
          if (model->feasibility_margin(points[i]) <= 0.0) continue;
          EXPECT_LT(rho1, mac::kQueueStabilityCap) << label << " point " << i;
          EXPECT_GT(model->latency(points[i]), 0.0) << label << " point " << i;
          EXPECT_GT(margin[i], 0.0) << label << " point " << i;
          EXPECT_GT(lat[i], 0.0) << label << " point " << i;
        }
        core::EnergyDelayGame game(*model, req);
        const auto p2 = game.solve_p2();
        if (p2.ok()) {
          EXPECT_GT(p2.value().latency, 0.0) << label;
        } else {
          EXPECT_EQ(p2.error().code, ErrorCode::kInfeasible) << label;
        }
      }
    }
  }
  // The contexts really do reach the saturated regime.
  EXPECT_GT(fenced, 0u);
}

}  // namespace
}  // namespace edb
