// Tuning-service acceptance bench: hit-rate-driven serving throughput.
//
// Generates a Zipf-skewed mix of queries over perturbed paper_default()
// scenarios (distinct Lmax ranks, plus per-draw float noise that the key
// layer's quantization must absorb) and serves it twice:
//
//   served — TuningService with the sharded cache and batch planner:
//            distinct scenarios solved once, everything else is cache
//            hits;
//   cold   — the same service with the cache disabled and batching off
//            (max_batch = 1): every query pays a full solve.  Measured on
//            a subsample and scaled to a per-query cost, because the
//            whole mix would take hours by construction.
//
// Reports queries/sec for both paths, the dedup rate, the hit rate and
// the speedup, and records them in BENCH_service.json.  Exit code is non-zero when a
// served result disagrees bit-for-bit with a cold sequential
// core::run_sweep of the same scenario — the cache must be
// value-preserving, not just fast.
//
//   $ ./service_throughput [queries] [distinct] [threads] [cold_sample]
//
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_json.h"
#include "core/sweep.h"
#include "mac/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "util/latency.h"
#include "workload.h"

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

  const int n_queries = std::max(1, argc > 1 ? std::atoi(argv[1]) : 10000);
  const int distinct = std::max(1, argc > 2 ? std::atoi(argv[2]) : 32);
  const int threads = std::max(1, argc > 3 ? std::atoi(argv[3]) : 4);
  const int cold_sample =
      std::min(n_queries, std::max(1, argc > 4 ? std::atoi(argv[4]) : 100));
  const std::vector<std::string> protocols = {"X-MAC", "DMAC"};

  std::printf("== service_throughput: %d queries, %d distinct scenarios, "
              "%zu protocols, %d threads ==\n",
              n_queries, distinct, protocols.size(), threads);

  // Shared workload (bench/workload.h): Lmax-only scenario pool,
  // Zipf(1.2) popularity, sub-quantum float noise.  The seed pins this
  // bench's historical byte-identical mix.
  const std::vector<core::Scenario> pool = bench::scenario_pool(distinct);
  const std::vector<service::TuningQuery> mix =
      bench::zipf_mix(pool, n_queries, 20260727, protocols);

  // EDB_TRACE_OUT=<path>: capture the serving run's spans for Perfetto.
  obs::begin_env_trace();

  // --- served path -------------------------------------------------------
  service::ServiceOptions opts;
  opts.engine.threads = threads;
  opts.engine.parallel = threads > 1;
  service::TuningService service(opts);

  const double t0 = now_ms();
  std::vector<service::Ticket> tickets;
  tickets.reserve(mix.size());
  for (const auto& q : mix) tickets.push_back(service.submit(q));
  std::vector<Expected<service::TuningResult>> served;
  served.reserve(tickets.size());
  for (const auto& t : tickets) served.push_back(service.wait(t));
  const double served_ms = now_ms() - t0;

  const auto stats = service.stats();
  const double qps_served = 1e3 * n_queries / served_ms;
  // Only dedup_rate = 1 - solved / protocol_queries is independent of
  // batching: each distinct (scenario, protocol) is solved once wherever
  // the batch boundaries fall.  The cache's hit rate is not.  A lookup
  // that coalesces into an earlier miss of its own batch counts as a
  // cache miss, and how many lookups share a batch depends on thread
  // scheduling, so hit_rate moves between runs of one binary.  The
  // planner's cache_hits and coalesced counts show the split.
  const double dedup_rate =
      stats.planner.protocol_queries
          ? 1.0 - static_cast<double>(stats.planner.solved) /
                      static_cast<double>(stats.planner.protocol_queries)
          : 0.0;
  std::printf("served : %8.1f ms  (%.0f queries/s, dedup %.3f: %zu solves, "
              "%zu cache hits, %zu coalesced; cache hit rate %.3f depends "
              "on batching, dedup does not)\n",
              served_ms, qps_served, dedup_rate, stats.planner.solved,
              stats.planner.cache_hits, stats.planner.coalesced,
              stats.cache.hit_rate());
  // The whole mix is submitted as one burst, so admit -> done is mostly
  // the wait behind earlier queries; queue wait is reported beside it.
  // The registry's histograms hold the served pass only: nothing else in
  // this process has served yet.
  const LatencyHistogram latency =
      obs::Registry::global().histogram("service.latency").merged();
  const LatencyHistogram queue_wait =
      obs::Registry::global().histogram("service.queue_wait").merged();
  auto ms = [](const LatencyHistogram& h, double q) {
    return h.quantile(q) * 1e3;
  };
  std::printf("latency: admit -> done p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, "
              "p99.9 %.2f ms; of which queue wait p50 %.2f ms, p99 %.2f ms\n",
              ms(latency, 0.50), ms(latency, 0.95), ms(latency, 0.99),
              ms(latency, 0.999), ms(queue_wait, 0.50),
              ms(queue_wait, 0.99));

  // --- cold path (subsample, no cache, no batching) ----------------------
  service::ServiceOptions cold_opts = opts;
  cold_opts.cache_capacity = 0;
  cold_opts.max_batch = 1;
  service::TuningService cold(cold_opts);

  const double t1 = now_ms();
  for (int i = 0; i < cold_sample; ++i) {
    auto r = cold.query(mix[static_cast<std::size_t>(i)]);
    if (!r.ok()) {
      std::printf("COLD QUERY FAILED: %s\n", r.error().to_string().c_str());
      return 1;
    }
  }
  const double cold_ms = now_ms() - t1;
  const double qps_cold = 1e3 * cold_sample / cold_ms;
  const double speedup = qps_served / qps_cold;
  std::printf("cold   : %8.1f ms for %d queries (%.1f queries/s, "
              "no cache, no batching)\n",
              cold_ms, cold_sample, qps_cold);
  std::printf("speedup: %.1fx\n", speedup);

  // --- cross-check: served results must equal a cold sequential sweep ----
  int mismatches = 0;
  const auto canonical = service::canonical_protocol_set(protocols).value();
  for (int k = 0; k < std::min(distinct, 4); ++k) {
    // Noisy twins collide onto one canonical key; the cache's entry was
    // solved with the *first* such query's exact bits, so that
    // representative is what the cold path must reproduce bit-for-bit.
    const auto pool_key = service::query_key(pool[k], canonical, {});
    const service::TuningResult* r = nullptr;
    const core::Scenario* rep = nullptr;
    for (std::size_t i = 0; i < mix.size() && !r; ++i) {
      if (served[i].ok() && served[i]->key == pool_key) {
        r = &served[i].value();
        rep = &mix[i].scenario;
      }
    }
    if (!r) continue;
    for (const auto& po : r->per_protocol) {
      auto model = mac::make_model(po.protocol, rep->context).take();
      auto sweep = core::run_sweep(*model, rep->requirements,
                                   core::SweepKind::kLmax,
                                   {rep->requirements.l_max});
      const auto& cell = sweep.cells[0];
      if (cell.feasible() != po.feasible()) {
        std::printf("FEASIBILITY MISMATCH rank %d %s\n", k,
                    po.protocol.c_str());
        ++mismatches;
        continue;
      }
      if (cell.feasible() &&
          (cell.outcome->nbs.energy != po.outcome->nbs.energy ||
           cell.outcome->nbs.latency != po.outcome->nbs.latency)) {
        std::printf("VALUE MISMATCH rank %d %s\n", k, po.protocol.c_str());
        ++mismatches;
      }
    }
  }
  std::printf("cross-check vs cold core::run_sweep: %s\n",
              mismatches == 0 ? "identical" : "MISMATCH");

  bench::BenchJson json;
  json.integer("queries", n_queries);
  json.integer("distinct_scenarios", distinct);
  json.integer("protocols_per_query", static_cast<long long>(protocols.size()));
  json.integer("threads", threads);
  json.number("served_ms", served_ms);
  json.number("qps_served", qps_served);
  json.number("hit_rate", stats.cache.hit_rate());
  json.number("dedup_rate", dedup_rate);
  json.integer("cache_hits",
               static_cast<long long>(stats.planner.cache_hits));
  json.integer("coalesced", static_cast<long long>(stats.planner.coalesced));
  json.integer("solved_cells", static_cast<long long>(stats.planner.solved));
  json.integer("sweep_jobs",
               static_cast<long long>(stats.planner.sweep_jobs));
  json.number("p50_ms", ms(latency, 0.50));
  json.number("p95_ms", ms(latency, 0.95));
  json.number("p99_ms", ms(latency, 0.99));
  json.number("p999_ms", ms(latency, 0.999));
  json.number("queue_wait_p50_ms", ms(queue_wait, 0.50));
  json.number("queue_wait_p99_ms", ms(queue_wait, 0.99));
  json.integer("cold_sample", cold_sample);
  json.number("cold_ms", cold_ms);
  json.number("qps_cold", qps_cold);
  json.number("speedup_vs_cold", speedup);
  json.integer("mismatches", mismatches);
  json.registry(obs::Registry::global().snapshot());
  json.write_file("BENCH_service.json");

  // The registry's own view of the run: cache, service, engine, descent
  // and solver metrics.
  std::printf("\n%s", service::TuningService::metrics_text().c_str());

  const std::string trace_path = obs::end_env_trace();
  if (!trace_path.empty()) std::printf("wrote %s\n", trace_path.c_str());

  return mismatches == 0 ? 0 : 1;
}
