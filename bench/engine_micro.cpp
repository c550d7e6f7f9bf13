// Scenario-engine microbench: the acceptance run for the parallel engine.
//
// Solves a 40-cell Lmax sweep of every registered protocol twice:
//
//   baseline — a width-1 fan (the calling thread), what core::run_sweep
//              runs;
//   engine   — a width-4 fan by default; every cell of every sweep is one
//              cold solve and one task.
//
// It then cross-checks the two runs cell-for-cell (identical feasibility
// flags, agreements within 1e-9 relative) and reports the wall-clock
// speedup, plus each protocol's sweep timed on its own at width 1 and at
// the engine's width.  Exit code is non-zero when the runs disagree.
//
//   $ ./engine_micro [threads] [cells]
//
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/engine.h"
#include "engine/fan.h"
#include "mac/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"

namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edb;

  int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  if (threads <= 0) threads = engine::Fan::hardware_threads();
  const int n_cells = std::max(2, argc > 2 ? std::atoi(argv[2]) : 40);
  const std::vector<std::string> protocols = mac::registered_protocols();

  core::Scenario scenario = core::Scenario::paper_default();
  std::vector<std::unique_ptr<mac::AnalyticMacModel>> models;
  std::vector<core::SweepJob> jobs;
  std::vector<double> values;
  for (int i = 0; i < n_cells; ++i) {
    // Lmax from 1 s to 6 s, the Fig. 1 range at sweep resolution.
    values.push_back(1.0 + 5.0 * i / (n_cells - 1));
  }
  for (const auto& name : protocols) {
    models.push_back(mac::make_model(name, scenario.context).take());
    jobs.push_back(core::SweepJob{models.back().get(),
                                  scenario.requirements,
                                  core::SweepKind::kLmax, values});
  }

  std::printf("== engine_micro: %zu protocols x %d cells ==\n",
              protocols.size(), n_cells);

  // EDB_TRACE_OUT=<path> captures fan/solver spans.
  obs::begin_env_trace();

  // The sequential baseline runs one sweep at a time, so timing each
  // sweep separately costs nothing and splits the total per protocol.
  core::ScenarioEngine baseline(
      core::EngineOptions{.threads = 1, .parallel = false});
  std::vector<core::SweepResult> seq;
  std::vector<double> width1_ms;
  for (const auto& job : jobs) {
    const double t = now_ms();
    seq.push_back(baseline.run_sweep(job));
    width1_ms.push_back(now_ms() - t);
  }
  double t_seq = 0.0;
  for (double t : width1_ms) t_seq += t;
  std::printf("baseline (width 1)  : %8.1f ms\n", t_seq);

  core::ScenarioEngine engine(
      core::EngineOptions{.threads = threads, .parallel = true});
  const double t1 = now_ms();
  auto par = engine.run_sweeps(jobs);
  const double t_par = now_ms() - t1;
  std::printf("engine   (width %d)  : %8.1f ms\n", threads, t_par);

  // Per-protocol sweep at the engine's width: its cells fan out.
  std::vector<double> widthn_ms;
  const std::string widthn_col = "width " + std::to_string(threads) + " ms";
  std::printf("  %-8s %12s %12s\n", "protocol", "width 1 ms",
              widthn_col.c_str());
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    const double t = now_ms();
    engine.run_sweep(jobs[p]);
    widthn_ms.push_back(now_ms() - t);
    std::printf("  %-8s %12.1f %12.1f\n", protocols[p].c_str(), width1_ms[p],
                widthn_ms[p]);
  }

  // Cross-check: identical feasibility flags, agreements within 1e-9.
  int mismatches = 0;
  double worst_rel = 0.0;
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    for (std::size_t c = 0; c < seq[p].cells.size(); ++c) {
      const auto& a = seq[p].cells[c];
      const auto& b = par[p].cells[c];
      if (a.feasible() != b.feasible()) {
        std::printf("FEASIBILITY MISMATCH %s cell %zu\n",
                    seq[p].protocol.c_str(), c);
        ++mismatches;
        continue;
      }
      if (!a.feasible()) continue;
      const double re = rel_diff(a.outcome->nbs.energy, b.outcome->nbs.energy);
      const double rl =
          rel_diff(a.outcome->nbs.latency, b.outcome->nbs.latency);
      worst_rel = std::max({worst_rel, re, rl});
      if (re > 1e-9 || rl > 1e-9) {
        std::printf("AGREEMENT MISMATCH %s cell %zu: relE=%.3g relL=%.3g\n",
                    seq[p].protocol.c_str(), c, re, rl);
        ++mismatches;
      }
    }
  }

  std::printf("cross-check: %s (worst agreement rel-diff %.3g)\n",
              mismatches == 0 ? "identical" : "MISMATCH", worst_rel);
  std::printf("speedup: %.2fx\n", t_seq / t_par);

  bench::BenchJson json;
  json.integer("threads", threads);
  json.integer("protocols", static_cast<long long>(protocols.size()));
  json.integer("cells", n_cells);
  json.number("baseline_ms", t_seq);
  json.number("engine_ms", t_par);
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    json.number(("baseline_ms." + protocols[p]).c_str(), width1_ms[p]);
    json.number(("engine_ms." + protocols[p]).c_str(), widthn_ms[p]);
  }
  json.number("speedup", t_seq / t_par);
  json.number("worst_rel_diff", worst_rel);
  json.integer("mismatches", mismatches);
  json.registry(obs::Registry::global().snapshot());
  json.write_file("BENCH_engine.json");

  const std::string trace_path = obs::end_env_trace();
  if (!trace_path.empty()) std::printf("wrote %s\n", trace_path.c_str());

  return mismatches == 0 ? 0 : 1;
}
