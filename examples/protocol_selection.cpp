// Protocol selection: which MAC should a deployment run?
//
// The motivating use case of the paper's framework: given application
// requirements, solve the bargaining game for every registered protocol
// (the paper's three plus the B-MAC / SCP-MAC extensions) and rank the
// agreements.  A protocol whose game is infeasible cannot satisfy the
// application at all.
//
//   $ ./protocol_selection [Ebudget_J] [Lmax_s] [threads] [family] [index]
//
// The deployment comes from the scenario catalog (catalog/catalog.h):
// `paper-baseline/0` unless another catalog entry is named.  A numeric
// Ebudget/Lmax argument overrides the entry's own requirement; "-" keeps
// the entry's value (so catalog families whose axes are the requirements
// stay visible: `./protocol_selection - - 4 tight-budget 3`).
//
// Every protocol's game is independent, so the candidates are solved as
// one batch through the scenario engine (parallel across protocols when a
// thread count > 1 is given).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "core/engine.h"
#include "core/game_framework.h"
#include "mac/registry.h"
#include "util/si.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace edb;
  const catalog::Catalog cat = catalog::Catalog::builtin();
  const char* family = argc > 4 ? argv[4] : "paper-baseline";
  const std::size_t index =
      argc > 5 ? static_cast<std::size_t>(std::atoll(argv[5])) : 0;
  if (cat.find(family) == nullptr) {
    std::fprintf(stderr, "unknown family %s\n", family);
    return 1;
  }
  core::Scenario scenario =
      cat.expand(family, index, catalog::kDefaultSeed).scenario;
  const auto is_skip = [](const char* arg) {
    return arg[0] == '-' && arg[1] == '\0';
  };
  if (argc > 1 && !is_skip(argv[1])) {
    scenario.requirements.e_budget = std::atof(argv[1]);
  }
  if (argc > 2 && !is_skip(argv[2])) {
    scenario.requirements.l_max = std::atof(argv[2]);
  }
  const int threads = argc > 3 ? std::atoi(argv[3]) : 1;

  std::printf("== Protocol selection ==\n");
  std::printf("deployment   : %s/%zu — D=%d rings, C=%g, fs=%g Hz (%s)\n",
              family, index, scenario.context.ring.depth,
              scenario.context.ring.density, scenario.context.fs,
              scenario.context.radio.name.c_str());
  std::printf("requirements : E <= %.3f J/epoch, L <= %.1f s\n\n",
              scenario.requirements.e_budget, scenario.requirements.l_max);

  std::vector<std::string> names;
  std::vector<std::unique_ptr<mac::AnalyticMacModel>> models;
  std::vector<core::SolveJob> jobs;
  for (const auto& name : mac::registered_protocols()) {
    auto model_or = mac::make_model(name, scenario.context);
    if (!model_or.ok()) continue;
    names.push_back(name);
    models.push_back(std::move(model_or).take());
    jobs.push_back(core::SolveJob{models.back().get(),
                                  scenario.requirements});
  }

  core::ScenarioEngine engine(core::EngineOptions{
      .threads = threads, .parallel = threads > 1});
  auto outcomes = engine.solve_batch(jobs);

  Table table({"protocol", "E* [J]", "L* [ms]", "Nash product", "param",
               "verdict"});
  std::string best;
  double best_product = -1;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& name = names[i];
    const auto& outcome = outcomes[i];
    if (!outcome.ok()) {
      table.row({name, "-", "-", "-", "-", "infeasible"});
      continue;
    }
    char e[32], l[32], np[32], px[32];
    std::snprintf(e, 32, "%.5f", outcome->nbs.energy);
    std::snprintf(l, 32, "%.0f", to_ms(outcome->nbs.latency));
    std::snprintf(np, 32, "%.3g", outcome->nash_product);
    std::snprintf(px, 32, "%s=%.4f",
                  models[i]->params().info(0).name.c_str(),
                  outcome->nbs.x[0]);
    table.row({name, e, l, np, px, "ok"});
    // Rank by the energy headroom the agreement leaves (application keeps
    // the delay bound satisfied either way).
    const double headroom =
        scenario.requirements.e_budget - outcome->nbs.energy;
    if (best.empty() || headroom > best_product) {
      best_product = headroom;
      best = name;
    }
  }
  table.print(std::cout);
  if (!best.empty()) {
    std::printf("\nrecommended: %s (largest energy headroom at the fair "
                "operating point)\n", best.c_str());
  } else {
    std::printf("\nno protocol satisfies these requirements — relax Lmax or "
                "raise the budget\n");
  }
  return 0;
}
