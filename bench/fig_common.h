// Shared driver for the fig1_* / fig2_* benches.
//
// Each paper sub-figure shows, for one protocol, the E-L frontier plus the
// Nash-bargaining trade-off point per requirement setting.  The driver
// prints (a) a sample of the frontier (the curve the figure draws), (b) the
// per-cell sweep table (core/report.h), and (c) a one-line summary naming
// any saturation cluster — the feature the paper's figure legends call out.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/engine.h"
#include "core/game_framework.h"
#include "core/report.h"
#include "core/sweep.h"
#include "engine/fan.h"
#include "mac/registry.h"
#include "util/si.h"
#include "util/table.h"

namespace edb::bench {

// Thread-count CLI convention shared by the fig* drivers (and matching
// the benches): ./fig1_xmac [threads] — default 1 (sequential engine),
// <= 0 resolves to the hardware concurrency.
inline int figure_threads(int argc, char** argv) {
  if (argc <= 1) return 1;
  const int threads = std::atoi(argv[1]);
  return threads <= 0 ? engine::Fan::hardware_threads() : threads;
}

inline int run_figure(const std::string& protocol, core::SweepKind kind,
                      const char* figure_label, int threads = 1) {
  core::Scenario scenario = core::Scenario::paper_default();
  auto model_or = mac::make_model(protocol, scenario.context);
  if (!model_or.ok()) {
    std::cerr << "unknown protocol: " << protocol << "\n";
    return 1;
  }
  auto model = std::move(model_or).take();

  std::printf("== %s: %s — Nash-bargaining energy-delay trade-off ==\n",
              figure_label, protocol.c_str());
  std::printf("deployment: D=%d rings, density C=%g, fs=%g Hz, epoch=%g s\n",
              scenario.context.ring.depth, scenario.context.ring.density,
              scenario.context.fs, scenario.context.energy_epoch);
  if (kind == core::SweepKind::kLmax) {
    std::printf("fixed Ebudget = %.3f J, sweeping Lmax = 1..6 s\n\n",
                scenario.requirements.e_budget);
  } else {
    std::printf("fixed Lmax = %.1f s, sweeping Ebudget = 0.01..0.06 J\n\n",
                scenario.requirements.l_max);
  }

  // (a) The frontier curve behind the figure.
  core::EnergyDelayGame probe(*model, scenario.requirements);
  auto frontier = probe.frontier(512);
  std::printf("E-L frontier (%zu points), every 64th shown:\n",
              frontier.size());
  Table curve({"E [J]", "L [ms]", model->params().info(0).name + " [" +
                                      model->params().info(0).unit + "]"});
  for (std::size_t i = 0; i < frontier.size(); i += 64) {
    curve.row({frontier[i].f1, to_ms(frontier[i].f2), frontier[i].x[0]}, 5);
  }
  if (!frontier.empty()) {
    const auto& last = frontier.back();
    curve.row({last.f1, to_ms(last.f2), last.x[0]}, 5);
  }
  curve.print(std::cout);

  // (b) The trade-off points, via the scenario engine.  Every cell is one
  // cold solve, so the thread count only decides when a cell is computed:
  // the table is byte-identical at every width.
  std::printf("\nNash-bargaining trade-off points:\n");
  core::ScenarioEngine engine(
      core::EngineOptions{.threads = threads, .parallel = threads > 1});
  const core::SweepResult sweep = engine.run_sweep(
      core::SweepJob{model.get(), scenario.requirements, kind,
                     core::paper_sweep_values(kind)});
  core::print_sweep_table(sweep, std::cout);

  // (c) Summary (saturation clusters, ranges).
  std::printf("\n");
  core::print_sweep_summary(sweep, std::cout);
  std::printf(
      "\ngainE = (E*-Eworst)/(Ebest-Eworst), gainL = (L*-Lworst)/"
      "(Lbest-Lworst);\nthe paper's proportional-fairness identity asserts "
      "gainE == gainL.\n\n");
  return 0;
}

}  // namespace edb::bench
