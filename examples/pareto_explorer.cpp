// Pareto explorer: dump every protocol's E-L frontier as CSV.
//
// The frontier is the curve each of the paper's figures draws; piping this
// into a plotting tool reproduces them visually.  Writes one CSV block per
// protocol to stdout (or a file given as argv[1]).
//
//   $ ./pareto_explorer [output.csv] [threads] [family] [index]
//
// The deployment comes from the scenario catalog (catalog/catalog.h):
// by default `paper-baseline/0` (the paper's calibration), or any other
// catalog entry named on the command line, e.g.
//
//   $ ./pareto_explorer lossy.csv 4 lossy-channel 3
//
// The per-protocol NBS points are independent solves, so they go through
// the scenario engine as one batch (parallel across protocols when a
// thread count > 1 is given); the frontier traces follow per protocol.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "core/engine.h"
#include "core/game_framework.h"
#include "mac/registry.h"
#include "util/csv.h"
#include "util/si.h"

int main(int argc, char** argv) {
  using namespace edb;

  std::ofstream file;
  if (argc > 1) {
    file.open(argv[1]);
    if (!file) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
  }
  std::ostream& out = file.is_open() ? file : std::cout;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 1;
  const char* family = argc > 3 ? argv[3] : "paper-baseline";
  const std::size_t index =
      argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4])) : 0;

  const catalog::Catalog cat = catalog::Catalog::builtin();
  if (cat.find(family) == nullptr) {
    std::cerr << "unknown family " << family << "; available:\n";
    for (const auto& f : cat.families()) {
      std::cerr << "  " << f->name() << "\n";
    }
    return 1;
  }
  const auto entry = cat.expand(family, index, catalog::kDefaultSeed);
  std::cerr << "scenario " << entry.id() << "\n";
  const core::Scenario& scenario = entry.scenario;
  CsvWriter csv(out, {"protocol", "param_name", "param_value", "energy_J",
                      "latency_ms", "is_nbs_point"});

  const auto names = mac::registered_protocols();
  std::vector<std::unique_ptr<mac::AnalyticMacModel>> models;
  std::vector<core::SolveJob> jobs;
  for (const auto& name : names) {
    models.push_back(mac::make_model(name, scenario.context).take());
    jobs.push_back(core::SolveJob{models.back().get(),
                                  scenario.requirements});
  }

  core::ScenarioEngine engine(core::EngineOptions{
      .threads = threads, .parallel = threads > 1});
  auto outcomes = engine.solve_batch(jobs);

  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& name = names[i];
    core::EnergyDelayGame game(*models[i], scenario.requirements);

    const std::string pname = models[i]->params().info(0).name;
    for (const auto& p : game.frontier(1024)) {
      csv.row(std::vector<std::string>{
          name, pname, std::to_string(p.x[0]), std::to_string(p.f1),
          std::to_string(to_ms(p.f2)), "0"});
    }
    if (const auto& outcome = outcomes[i]; outcome.ok()) {
      csv.row(std::vector<std::string>{
          name, pname, std::to_string(outcome->nbs.x[0]),
          std::to_string(outcome->nbs.energy),
          std::to_string(to_ms(outcome->nbs.latency)), "1"});
    }
  }
  std::cerr << "wrote " << csv.rows_written() << " rows\n";
  return 0;
}
