// Batch-contract parity for the MAC models: every registered protocol's
// native evaluate_batch kernel must return bit-identical values to its
// scalar entry points, over the paper calibration and a catalog sample of
// deployment contexts, at both model versions.  On top of the raw
// metrics, the zooming grid driven by a model-backed block oracle must
// reproduce the scalar-oracle solve exactly (x, value, evaluations).
#include "mac/model.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/game_framework.h"
#include "mac/registry.h"
#include "opt/batch.h"
#include "opt/bounds.h"
#include "opt/grid.h"
#include "util/math.h"
#include "util/rng.h"

namespace edb {
namespace {

::testing::AssertionResult bits_eq(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "%a != %a", a, b);
  return ::testing::AssertionFailure() << buf;
}

// Deterministic sample of points inside the model's box: a lattice per
// axis (the solvers' access pattern), a cartesian lattice for boxes of
// two or more dimensions, plus uniform draws.
std::vector<std::vector<double>> sample_points(const mac::AnalyticMacModel& m,
                                               int lattice_n, int random_n) {
  const auto lo = m.params().lower();
  const auto hi = m.params().upper();
  const std::size_t dim = m.params().dim();
  std::vector<std::vector<double>> points;
  std::vector<std::vector<double>> axes(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    axes[i] = linspace(lo[i], hi[i], lattice_n);
  }
  // Diagonal walk through the axes: touches every axis value.
  for (int k = 0; k < lattice_n; ++k) {
    std::vector<double> x(dim);
    for (std::size_t i = 0; i < dim; ++i) x[i] = axes[i][k];
    points.push_back(std::move(x));
  }
  // Cartesian lattice (the 2-D S-MAC box): corners, edges and the
  // off-diagonal interior the diagonal walk never visits, including the
  // points where its coupled constraints bind.
  if (dim > 1) {
    constexpr int kCart = 17;
    std::vector<std::vector<double>> cart(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      cart[i] = linspace(lo[i], hi[i], kCart);
    }
    std::vector<int> idx(dim, 0);
    for (;;) {
      std::vector<double> x(dim);
      for (std::size_t i = 0; i < dim; ++i) x[i] = cart[i][idx[i]];
      points.push_back(std::move(x));
      std::size_t i = 0;
      while (i < dim && ++idx[i] == kCart) idx[i++] = 0;
      if (i == dim) break;
    }
  }
  Rng rng(0xba7c4ULL);
  for (int k = 0; k < random_n; ++k) {
    std::vector<double> x(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      x[i] = lo[i] + (hi[i] - lo[i]) * rng.uniform();
    }
    points.push_back(std::move(x));
  }
  return points;
}

void expect_batch_parity(const mac::AnalyticMacModel& model,
                         const std::string& label) {
  const auto points = sample_points(model, 33, 32);
  const std::size_t dim = model.params().dim();
  std::vector<double> xs;
  for (const auto& p : points) xs.insert(xs.end(), p.begin(), p.end());
  const std::size_t n = points.size();

  std::vector<double> e(n), l(n), m(n);
  model.evaluate_batch(xs.data(), n, e.data(), l.data(), m.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(bits_eq(e[i], model.energy(points[i])))
        << label << " energy @ point " << i;
    EXPECT_TRUE(bits_eq(l[i], model.latency(points[i])))
        << label << " latency @ point " << i;
    EXPECT_TRUE(bits_eq(m[i], model.feasibility_margin(points[i])))
        << label << " margin @ point " << i;
  }

  // Selective outputs: a call asking for one metric (the fenced solvers
  // ask for margins first, then one raw metric) stores the same bits as
  // the call asking for all three.
  std::vector<double> e_only(n), l_only(n), m_only(n);
  model.evaluate_batch(xs.data(), n, e_only.data(), nullptr, nullptr);
  model.evaluate_batch(xs.data(), n, nullptr, l_only.data(), nullptr);
  model.evaluate_batch(xs.data(), n, nullptr, nullptr, m_only.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(bits_eq(e_only[i], e[i])) << label << " energies-only " << i;
    EXPECT_TRUE(bits_eq(l_only[i], l[i])) << label << " latencies-only " << i;
    EXPECT_TRUE(bits_eq(m_only[i], m[i])) << label << " margins-only " << i;
  }

  // Single-point blocks (the fused scalar-stage path) match too.
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 8); ++i) {
    double e1, l1, m1;
    model.evaluate_batch(xs.data() + i * dim, 1, &e1, &l1, &m1);
    EXPECT_TRUE(bits_eq(e1, e[i])) << label << " n=1 energy " << i;
    EXPECT_TRUE(bits_eq(l1, l[i])) << label << " n=1 latency " << i;
    EXPECT_TRUE(bits_eq(m1, m[i])) << label << " n=1 margin " << i;
  }
}

TEST(MacBatchParity, AllProtocolsPaperCalibration) {
  const mac::ModelContext ctx;  // the paper's calibration
  for (const auto& name : mac::registered_protocols()) {
    auto model = mac::make_model(name, ctx);
    ASSERT_TRUE(model.ok()) << name;
    expect_batch_parity(**model, name);
  }
}

TEST(MacBatchParity, KV2QueueingKernelsMatchScalar) {
  // The kV2Queueing lane kernels re-derive the M/G/1 term with the exact
  // association order of mac/model.h queueing_delay; parity must hold
  // across every arrival shape the traffic model supports, and the
  // scalar-tail reference path must agree with the full-lane path.
  struct Shape {
    const char* label;
    net::ArrivalProcess arrivals;
    double burst_factor;
    double jitter_frac;
  };
  const Shape shapes[] = {
      {"periodic", net::ArrivalProcess::kPeriodic, 1.0, 0.25},
      {"poisson", net::ArrivalProcess::kPoisson, 1.0, 0.1},
      {"bursty", net::ArrivalProcess::kBursty, 6.0, 0.1},
  };
  for (const Shape& s : shapes) {
    mac::ModelContext ctx;
    ctx.model_version = mac::ModelVersion::kV2Queueing;
    ctx.arrivals = s.arrivals;
    ctx.burst_factor = s.burst_factor;
    ctx.jitter_frac = s.jitter_frac;
    for (const auto& name : mac::registered_protocols()) {
      auto model = mac::make_model(name, ctx);
      ASSERT_TRUE(model.ok()) << name;
      expect_batch_parity(**model,
                          std::string(name) + " kV2/" + s.label);
    }
  }
}

TEST(MacBatchParity, KV2CatalogSampleContexts) {
  // Reconfigured deployments (density/depth/fs sweeps) shift the per-ring
  // rates the queueing kernels fold over; kernel parity must survive all
  // of them, not just the paper calibration.
  const auto scenarios =
      catalog::Catalog::builtin().expand_all(catalog::kDefaultSeed, 1);
  ASSERT_FALSE(scenarios.empty());
  for (const auto& sc : scenarios) {
    mac::ModelContext ctx = sc.scenario.context;
    ctx.model_version = mac::ModelVersion::kV2Queueing;
    ctx.arrivals = net::ArrivalProcess::kBursty;
    ctx.burst_factor = 4.0;
    for (const auto& name : mac::registered_protocols()) {
      auto model = mac::make_model(name, ctx);
      if (!model.ok()) continue;  // not every protocol fits every context
      expect_batch_parity(**model, sc.id() + "/" + name + " kV2");
    }
  }
}

TEST(MacBatchParity, CatalogSampleContexts) {
  // One scenario per built-in family: density/depth/traffic/radio
  // variations reconfigure every model (frame lengths, cycle floors, wake
  // floors), so kernel invariants are exercised away from the paper
  // calibration.
  const auto scenarios =
      catalog::Catalog::builtin().expand_all(catalog::kDefaultSeed, 1);
  ASSERT_FALSE(scenarios.empty());
  for (const auto& sc : scenarios) {
    for (const auto& name : mac::registered_protocols()) {
      auto model = mac::make_model(name, sc.scenario.context);
      if (!model.ok()) continue;  // not every protocol fits every context
      expect_batch_parity(**model, sc.id() + "/" + name);
    }
  }
}

TEST(MacBatchParity, GridRefineScalarVsModelBatchOracle) {
  // End-to-end solver parity: the zooming grid over a model-backed block
  // oracle returns the same x/value/evaluations as over the scalar
  // oracle, for each registered model and each metric.
  const mac::ModelContext ctx;
  for (const auto& name : mac::registered_protocols()) {
    auto model = mac::make_model(name, ctx).take();
    const opt::Box box(model->params().lower(), model->params().upper());
    const opt::GridOptions opts{.points_per_dim = 65, .rounds = 6,
                                .zoom = 0.15};

    struct Metric {
      const char* label;
      int which;  // 0 energy, 1 latency, 2 margin (negated: maximise)
    };
    for (const Metric& metric :
         {Metric{"energy", 0}, Metric{"latency", 1}, Metric{"margin", 2}}) {
      opt::Objective scalar = [&model, metric](const std::vector<double>& x) {
        switch (metric.which) {
          case 0: return model->energy(x);
          case 1: return model->latency(x);
          default: return -model->feasibility_margin(x);
        }
      };
      opt::BatchObjective batch = [&model, metric](const opt::PointBlock& b,
                                                   double* v) {
        model->evaluate_batch(b.xs, b.n, metric.which == 0 ? v : nullptr,
                              metric.which == 1 ? v : nullptr,
                              metric.which == 2 ? v : nullptr);
        if (metric.which == 2) {
          for (std::size_t i = 0; i < b.n; ++i) v[i] = -v[i];
        }
      };
      auto rs = opt::grid_refine_min(scalar, box, opts);
      auto rb = opt::grid_refine_min(batch, box, opts);
      ASSERT_EQ(rs.x.size(), rb.x.size()) << name << " " << metric.label;
      for (std::size_t i = 0; i < rs.x.size(); ++i) {
        EXPECT_TRUE(bits_eq(rs.x[i], rb.x[i]))
            << name << " " << metric.label << " x[" << i << "]";
      }
      EXPECT_TRUE(bits_eq(rs.value, rb.value)) << name << " " << metric.label;
      EXPECT_EQ(rs.evaluations, rb.evaluations)
          << name << " " << metric.label;
    }
  }
}

TEST(MacBatchParity, EnvelopeBatchFenceMatchesScalarFence) {
  // core::protocol_envelope runs the batched fence (margins over the
  // block, raw metric only on feasible lanes); a hand-built scalar fence
  // over the same lattice family must land on bit-identical minima.
  const mac::ModelContext ctx;
  const opt::GridOptions grid_opts{.points_per_dim = 65, .rounds = 8,
                                   .zoom = 0.15};
  for (const auto& name : mac::registered_protocols()) {
    auto model = mac::make_model(name, ctx).take();
    const auto env = core::protocol_envelope(*model);
    const opt::Box box(model->params().lower(), model->params().upper());
    auto scalar_fenced = [&model](auto metric) {
      return [&model, metric](const std::vector<double>& x) {
        if (model->feasibility_margin(x) <= 0.0) return kInf;
        return metric(x);
      };
    };
    auto e = opt::grid_refine_min(
        scalar_fenced([&model](const std::vector<double>& x) {
          return model->energy(x);
        }),
        box, grid_opts);
    auto l = opt::grid_refine_min(
        scalar_fenced([&model](const std::vector<double>& x) {
          return model->latency(x);
        }),
        box, grid_opts);
    EXPECT_TRUE(bits_eq(env.e_min, e.value)) << name << " e_min";
    EXPECT_TRUE(bits_eq(env.l_min, l.value)) << name << " l_min";
  }
}

}  // namespace
}  // namespace edb
