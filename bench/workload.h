// Shared serving-bench workload generator.
//
// The three serving benches (service_throughput, chaos_service,
// server_loadgen) exercise the same realistic mix: a pool of
// paper_default() scenarios distinguished only by their delay bound —
// exactly what the batch planner folds into sweeps — queried with
// Zipf(1.2) rank-frequency popularity plus per-draw relative float
// noise far below the key layer's 10-significant-digit quantization, so
// noisy twins must collide in the cache.
//
// Determinism contract: the mix is a pure function of (pool, n_queries,
// seed, protocols) — one util/rng.h stream, two uniform draws per query
// in a fixed order — so each bench keeps its historical byte-identical
// mix by passing its own pinned seed (service_throughput: 20260727,
// chaos_service: 20260808).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "service/planner.h"
#include "util/rng.h"

namespace edb::bench {

// The scenario pool: paper_default() with the delay bound spread over
// [2, 6] s.  Queries differ only in requirements, so every distinct one
// is its own cache key and its own solve.
inline std::vector<core::Scenario> scenario_pool(int distinct) {
  std::vector<core::Scenario> pool;
  pool.reserve(static_cast<std::size_t>(std::max(1, distinct)));
  for (int k = 0; k < distinct; ++k) {
    core::Scenario s = core::Scenario::paper_default();
    s.requirements.l_max =
        distinct == 1 ? 6.0 : 2.0 + 4.0 * k / (distinct - 1);
    pool.push_back(s);
  }
  return pool;
}

// Zipf(s = `skew`) rank-frequency over the pool, plus per-draw relative
// float noise at `noise` on the delay bound — below the key layer's
// quantization quantum by default, so the noisy copies of one rank hit
// one cache entry.
inline std::vector<service::TuningQuery> zipf_mix(
    const std::vector<core::Scenario>& pool, int n_queries,
    std::uint64_t seed, const std::vector<std::string>& protocols,
    double skew = 1.2, double noise = 1e-13) {
  std::vector<double> cdf(pool.size());
  double z = 0;
  for (std::size_t k = 0; k < pool.size(); ++k) {
    z += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf[k] = z;
  }
  Rng rng(seed);
  std::vector<service::TuningQuery> mix;
  mix.reserve(static_cast<std::size_t>(std::max(0, n_queries)));
  for (int i = 0; i < n_queries; ++i) {
    const double u = rng.uniform() * z;
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    service::TuningQuery q;
    q.scenario = pool[std::min(k, pool.size() - 1)];
    q.scenario.requirements.l_max *= 1.0 + noise * rng.uniform(-1.0, 1.0);
    q.protocols = protocols;
    mix.push_back(std::move(q));
  }
  return mix;
}

}  // namespace edb::bench
