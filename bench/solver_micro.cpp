// google-benchmark timings of the solver suite and the full bargaining
// pipeline (the per-figure cost of the paper's benches).
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/game_framework.h"
#include "mac/registry.h"
#include "opt/grid.h"
#include "opt/nelder_mead.h"
#include "opt/penalty.h"

namespace {

using namespace edb;

void BM_GridRefine1D(benchmark::State& state) {
  opt::Box box({0.01}, {100.0});
  for (auto _ : state) {
    auto r = opt::grid_refine_min(
        [](const std::vector<double>& x) { return 1.0 / x[0] + 0.1 * x[0]; },
        box, {.points_per_dim = 65, .rounds = 10, .zoom = 0.15});
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_GridRefine1D);

void BM_NelderMead2D(benchmark::State& state) {
  opt::Box box({-5.0, -5.0}, {5.0, 5.0});
  for (auto _ : state) {
    auto r = opt::nelder_mead_min(
        [](const std::vector<double>& x) {
          const double a = 1 - x[0];
          const double b = x[1] - x[0] * x[0];
          return a * a + 100 * b * b;
        },
        box, {-1.0, 1.0});
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_NelderMead2D);

void BM_PenaltyConstrained(benchmark::State& state) {
  opt::Box box({0.0}, {10.0});
  for (auto _ : state) {
    auto r = opt::constrained_min(
        [](const std::vector<double>& x) { return x[0]; },
        {[](const std::vector<double>& x) { return x[0] - 4.0; }}, box);
    benchmark::DoNotOptimize(r.feasible);
  }
}
BENCHMARK(BM_PenaltyConstrained);

void BM_FullBargainingPipeline(benchmark::State& state) {
  const auto protocols = mac::paper_protocols();
  const auto& protocol = protocols[state.range(0)];
  core::Scenario scenario = core::Scenario::paper_default();
  auto model = mac::make_model(protocol, scenario.context).take();
  for (auto _ : state) {
    core::EnergyDelayGame game(*model, scenario.requirements);
    auto outcome = game.solve();
    benchmark::DoNotOptimize(outcome.ok());
  }
  state.SetLabel(protocol);
}
BENCHMARK(BM_FullBargainingPipeline)->DenseRange(0, 2);

void BM_FrontierTrace(benchmark::State& state) {
  core::Scenario scenario = core::Scenario::paper_default();
  auto model = mac::make_model("X-MAC", scenario.context).take();
  core::EnergyDelayGame game(*model, scenario.requirements);
  for (auto _ : state) {
    auto frontier = game.frontier(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(frontier.size());
  }
}
BENCHMARK(BM_FrontierTrace)->Arg(128)->Arg(512)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
