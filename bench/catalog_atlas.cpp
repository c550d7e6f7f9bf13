// Catalog atlas: fan every catalog scenario through the tuning service
// and chart the design space.
//
// Expands the built-in catalog (catalog/catalog.h), serves each scenario
// as one TuningService::query_batch — so the miss pipeline's dedup works
// across families — and assembles per-family
// coverage records and Pareto frontiers over the recommended (E*, L*)
// points (catalog/atlas.h).  Writes the coverage/throughput record to
// BENCH_catalog.json next to the binary, and optionally the frontier CSV.
//
//   $ ./catalog_atlas [threads] [per_family_cap] [frontier.csv]
//
// threads         engine width for the miss path (default 4; 0 = hardware)
// per_family_cap  scenarios per family, 0 = full catalog (CI uses a small
//                 cap; acceptance runs use 0)
// frontier.csv    optional path for the per-family frontier dump
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <vector>

#include "bench_json.h"
#include "catalog/atlas.h"
#include "catalog/catalog.h"
#include "engine/fan.h"
#include "service/service.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace edb;
  int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  if (threads <= 0) threads = engine::Fan::hardware_threads();
  const std::size_t cap =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 0;

  const catalog::Catalog cat = catalog::Catalog::builtin();
  const auto scenarios = cat.expand_all(catalog::kDefaultSeed, cap);
  std::printf("== Catalog atlas ==\n");
  std::printf("%zu families, %zu scenarios (cap %zu), engine width %d\n\n",
              cat.families().size(), scenarios.size(), cap, threads);

  std::vector<service::TuningQuery> queries;
  queries.reserve(scenarios.size());
  for (const auto& sc : scenarios) {
    service::TuningQuery q;
    q.scenario = sc.scenario;  // protocols empty: the paper's three
    queries.push_back(std::move(q));
  }

  service::ServiceOptions opts;
  opts.engine.threads = threads;
  opts.engine.parallel = threads > 1;
  opts.max_batch = 256;  // whole families per planner invocation
  service::TuningService service(opts);

  const auto start = std::chrono::steady_clock::now();
  const auto results = service.query_batch(queries);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

  // Reduce each answer to its atlas point and bucket by family.
  std::map<std::string, std::vector<catalog::AtlasPoint>> by_family;
  std::size_t errors = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    catalog::AtlasPoint p;
    p.index = scenarios[i].index;
    if (!results[i].ok()) {
      ++errors;
    } else if (results[i]->recommended >= 0) {
      const auto& best =
          results[i]->per_protocol[static_cast<std::size_t>(
              results[i]->recommended)];
      p.feasible = true;
      p.protocol = best.protocol;
      p.energy = best.outcome->nbs.energy;
      p.latency = best.outcome->nbs.latency;
    }
    by_family[scenarios[i].family].push_back(p);
  }

  std::vector<catalog::FamilyFrontier> frontiers;
  for (const auto& f : cat.families()) {
    const auto it = by_family.find(f->name());
    if (it == by_family.end()) continue;
    frontiers.push_back(catalog::family_frontier(f->name(), it->second));
  }

  Table table({"family", "scenarios", "feasible", "frontier", "best MAC"});
  std::size_t feasible_total = 0, frontier_total = 0;
  for (const auto& fam : frontiers) {
    feasible_total += fam.feasible;
    frontier_total += fam.frontier.size();
    table.row({fam.family, std::to_string(fam.scenarios),
               std::to_string(fam.feasible),
               std::to_string(fam.frontier.size()),
               fam.wins.empty() ? "-" : fam.wins.front().first});
  }
  table.print(std::cout);

  const auto stats = service.stats();
  std::printf("\nserved %zu scenarios (%zu infeasible, %zu errors) in "
              "%.0f ms — %.1f scenarios/s\n",
              scenarios.size(), scenarios.size() - feasible_total - errors,
              errors, elapsed_ms, 1e3 * scenarios.size() / elapsed_ms);
  std::printf("planner: %zu protocol-queries, %zu solved, %zu cache "
              "hits\n",
              stats.planner.protocol_queries, stats.planner.solved,
              stats.planner.cache_hits);

  if (argc > 3) {
    std::ofstream csv(argv[3]);
    if (!csv) {
      std::cerr << "cannot open " << argv[3] << "\n";
      return 1;
    }
    catalog::write_frontier_csv(csv, frontiers);
    std::printf("wrote %s\n", argv[3]);
  }

  bench::BenchJson json;
  json.integer("families", static_cast<long long>(frontiers.size()));
  json.integer("scenarios", static_cast<long long>(scenarios.size()));
  json.integer("feasible", static_cast<long long>(feasible_total));
  json.integer("frontier_points", static_cast<long long>(frontier_total));
  json.integer("errors", static_cast<long long>(errors));
  json.integer("protocol_queries",
               static_cast<long long>(stats.planner.protocol_queries));
  json.integer("solved_cells", static_cast<long long>(stats.planner.solved));
  json.integer("sweep_jobs",
               static_cast<long long>(stats.planner.sweep_jobs));
  json.integer("threads", threads);
  json.number("elapsed_ms", elapsed_ms);
  json.number("scenarios_per_sec", 1e3 * scenarios.size() / elapsed_ms);
  json.write_file("BENCH_catalog.json");
  return errors == 0 ? 0 : 1;
}
