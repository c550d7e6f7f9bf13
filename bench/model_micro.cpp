// google-benchmark timings of one analytic E(X)/L(X) evaluation per
// protocol through the scalar entry points, and of one evaluate_batch call
// — the call the solvers actually make — over the solvers' block lengths
// and a 1,024-point block.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "mac/registry.h"

namespace {

using namespace edb;

// One benchmark row per registered protocol.
const int kLastProtocol =
    static_cast<int>(mac::registered_protocols().size()) - 1;

void BM_Energy(benchmark::State& state) {
  const auto protocols = mac::registered_protocols();
  const auto& name = protocols[state.range(0)];
  auto model = mac::make_model(name, mac::ModelContext{}).take();
  const auto x = model->params().midpoint();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->energy(x));
  }
  state.SetLabel(name);
}
BENCHMARK(BM_Energy)->DenseRange(0, kLastProtocol);

void BM_Latency(benchmark::State& state) {
  const auto protocols = mac::registered_protocols();
  const auto& name = protocols[state.range(0)];
  auto model = mac::make_model(name, mac::ModelContext{}).take();
  const auto x = model->params().midpoint();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->latency(x));
  }
  state.SetLabel(name);
}
BENCHMARK(BM_Latency)->DenseRange(0, kLastProtocol);

void BM_FeasibilityMargin(benchmark::State& state) {
  const auto protocols = mac::registered_protocols();
  const auto& name = protocols[state.range(0)];
  auto model = mac::make_model(name, mac::ModelContext{}).take();
  const auto x = model->params().midpoint();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->feasibility_margin(x));
  }
  state.SetLabel(name);
}
BENCHMARK(BM_FeasibilityMargin)->DenseRange(0, kLastProtocol);

// Args: protocol index, block length.  Besides 1,024, the block lengths
// the solvers actually issue: the descent's 1- to 3-point stencils (all
// of them shorter than one lane block, so they run on the remainder
// lanes) and the 17/65-point grid lattices.
void BM_EvaluateBatch(benchmark::State& state) {
  const std::size_t block = static_cast<std::size_t>(state.range(1));
  const auto protocols = mac::registered_protocols();
  const auto& name = protocols[state.range(0)];
  auto model = mac::make_model(name, mac::ModelContext{}).take();
  // A diagonal walk through the box, packed row-major.
  const auto& space = model->params();
  const double span = block > 1 ? static_cast<double>(block - 1) : 1.0;
  std::vector<double> xs;
  for (std::size_t k = 0; k < block; ++k) {
    for (std::size_t a = 0; a < space.dim(); ++a) {
      const auto& info = space.info(a);
      xs.push_back(info.lo + (info.hi - info.lo) * k / span);
    }
  }
  std::vector<double> e(block), l(block), m(block);
  for (auto _ : state) {
    model->evaluate_batch(xs.data(), block, e.data(), l.data(), m.data());
    benchmark::DoNotOptimize(e.data());
    benchmark::DoNotOptimize(l.data());
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(state.iterations() * block);
  state.SetLabel(name);
}
BENCHMARK(BM_EvaluateBatch)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kLastProtocol, 1),
                   {1, 2, 3, 17, 65, 1024}});

void BM_EnergyDeepRing(benchmark::State& state) {
  // Scaling in ring depth (the per-ring max in energy()).
  mac::ModelContext ctx;
  ctx.ring.depth = static_cast<int>(state.range(0));
  auto model = mac::make_model("X-MAC", ctx).take();
  const auto x = model->params().midpoint();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->energy(x));
  }
}
BENCHMARK(BM_EnergyDeepRing)->Arg(5)->Arg(20)->Arg(80);

}  // namespace

BENCHMARK_MAIN();
