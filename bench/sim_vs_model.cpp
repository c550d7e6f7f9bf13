// Validation table: analytic MAC models vs the discrete-event simulator.
//
// For each paper protocol (plus the extension baselines), sweeps its
// tunable parameter over a few values and compares predicted vs measured
// bottleneck power and worst-ring e2e delay.  All (protocol, parameter)
// cells are one sim::Campaign — the replication loops, topology
// construction and per-protocol factory wiring that used to live here
// hand-rolled are now the campaign layer's job — so the whole table fans
// through the deterministic engine and every cell reports a
// replication-averaged measurement.
#include <cstdio>
#include <iostream>
#include <memory>

#include "mac/bmac.h"
#include "mac/dmac.h"
#include "mac/lmac.h"
#include "mac/registry.h"
#include "mac/scpmac.h"
#include "mac/xmac.h"
#include "sim/campaign.h"
#include "util/math.h"
#include "util/si.h"
#include "util/table.h"

namespace {

using namespace edb;

constexpr int kDepth = 3;
constexpr double kDensity = 3;
constexpr double kFs = 0.01;
constexpr double kDuration = 3000;
constexpr int kLmacSlots = 48;  // corridor 2-hop neighbourhoods span ~36 nodes
constexpr int kReplications = 2;

mac::ModelContext context() {
  mac::ModelContext ctx;
  ctx.ring = net::RingTopology{.depth = kDepth, .density = kDensity};
  ctx.fs = kFs;
  ctx.energy_epoch = 1.0;  // E == average power [W]
  return ctx;
}

}  // namespace

int main() {
  std::printf("== Simulator vs analytic models ==\n");
  std::printf("topology: D=%d ring corridor, C=%g, fs=%g Hz, %g s x %d "
              "replications\n",
              kDepth, kDensity, kFs, kDuration, kReplications);
  std::printf(
      "(delay measured on the contended corridor: expect a modest inflation "
      "over\nthe unsaturated analytic prediction)\n\n");

  const mac::ModelContext ctx = context();

  // The table's grid: (protocol, parameter values).  Every cell becomes
  // one campaign scenario keyed by its own stable seed.
  struct GridRow {
    const char* protocol;
    std::vector<double> params;
    std::uint64_t seed_base;
  };
  const std::vector<GridRow> grid = {
      {"X-MAC", {0.15, 0.25, 0.5}, 1000},
      {"DMAC", {0.5, 1.0, 2.0}, 2000},
      {"LMAC", {0.03, 0.05, 0.08}, 3000},
      {"B-MAC", {0.1, 0.2}, 4000},
      {"SCP-MAC", {0.25, 0.5}, 5000},
  };

  std::vector<sim::CampaignScenario> cells;
  for (const auto& row : grid) {
    for (double param : row.params) {
      sim::CampaignScenario c;
      c.name = std::string(row.protocol) + "@" + std::to_string(param);
      c.protocol = row.protocol;
      c.x = {param};
      c.context = ctx;
      c.duration = kDuration;
      c.lmac_slots = kLmacSlots;
      c.scenario_seed =
          row.seed_base + static_cast<std::uint64_t>(param * 1000);
      cells.push_back(std::move(c));
    }
  }

  sim::CampaignOptions copts;
  copts.replications = kReplications;
  copts.threads = 4;
  sim::Campaign campaign(copts);
  const auto results = campaign.run(cells);

  // Analytic models over the same context; LMAC shares the campaign's
  // frame size so prediction and behaviour agree on the configuration.
  mac::LmacConfig lcfg;
  lcfg.n_slots = kLmacSlots;
  const mac::XmacModel xmac(ctx);
  const mac::DmacModel dmac(ctx);
  const mac::LmacModel lmac(ctx, lcfg);
  const mac::BmacModel bmac(ctx);
  const mac::ScpmacModel scpmac(ctx);
  const auto model_for = [&](std::string_view name)
      -> const mac::AnalyticMacModel& {
    if (name == "X-MAC") return xmac;
    if (name == "DMAC") return dmac;
    if (name == "LMAC") return lmac;
    if (name == "B-MAC") return bmac;
    return scpmac;
  };

  Table table({"protocol", "param", "P_pred [mW]", "P_meas [mW]", "dP",
               "L_pred [ms]", "L_meas [ms]", "delivery"});
  std::size_t i = 0;
  for (const auto& row : grid) {
    const auto& model = model_for(row.protocol);
    for (double param : row.params) {
      const sim::CampaignResult& r = results[i++];
      const double pred_p = model.power_at_ring({param}, 1).total();
      const double pred_l = model.latency({param});
      char c[7][32];
      std::snprintf(c[0], 32, "%.4g", param);
      std::snprintf(c[1], 32, "%.3f", to_mw(pred_p));
      std::snprintf(c[2], 32, "%.3f", to_mw(r.power.mean()));
      std::snprintf(c[3], 32, "%.0f%%",
                    100 * rel_diff(pred_p, r.power.mean()));
      std::snprintf(c[4], 32, "%.0f", to_ms(pred_l));
      std::snprintf(c[5], 32, "%.0f", to_ms(r.delay.mean()));
      std::snprintf(c[6], 32, "%.3f", r.delivery.mean());
      table.row({row.protocol, c[0], c[1], c[2], c[3], c[4], c[5], c[6]});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nKnown measured-vs-model gaps, both topology effects rather than "
      "formula\nerrors: DMAC's long-cycle delays inflate because same-ring "
      "nodes contend in\nthe same staggered slot and losers defer a full "
      "cycle; B-MAC overhearing\nruns above prediction because corridor "
      "neighbourhoods are denser than the\nmodel's C (and B-MAC is the one "
      "protocol whose cost is overhearing-driven).\n");
  return 0;
}
