// Tuning-service walkthrough: serving "which MAC should I run?" queries.
//
// The figure drivers answer one scenario at a time by running the whole
// pipeline; the tuning service (src/service) answers *streams* of
// scenarios: queries are canonicalized into cache keys, misses are
// deduplicated and fanned through the scenario engine as independent cold
// solves, and repeats are served from the sharded cache in microseconds.
//
//   $ ./tuning_service [threads]
//
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "service/service.h"
#include "util/latency.h"
#include "util/si.h"

int main(int argc, char** argv) {
  using namespace edb;
  const int threads = argc > 1 ? std::atoi(argv[1]) : 2;

  service::ServiceOptions opts;
  opts.engine.threads = threads;
  opts.engine.parallel = threads > 1;
  opts.cache_capacity = 256;
  service::TuningService service(opts);

  // --- 1. a synchronous query over the paper's deployment ---------------
  service::TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  // Empty protocol list = the paper's three (X-MAC, DMAC, LMAC).

  std::printf("== query: paper_default (E <= %.2f J, L <= %.1f s) ==\n",
              q.scenario.requirements.e_budget,
              q.scenario.requirements.l_max);
  auto result = service.query(q);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.error().to_string().c_str());
    return 1;
  }
  for (const auto& p : result->per_protocol) {
    if (p.feasible()) {
      std::printf("  %-8s E* = %.5f J   L* = %.0f ms\n", p.protocol.c_str(),
                  p.outcome->nbs.energy, to_ms(p.outcome->nbs.latency));
    } else {
      std::printf("  %-8s %s\n", p.protocol.c_str(),
                  p.infeasible_reason.c_str());
    }
  }
  if (result->recommended >= 0) {
    std::printf("recommended: %s\n\n",
                result->per_protocol[result->recommended].protocol.c_str());
  }

  // --- 2. async submits: perturbed requirements, solved as one batch ----
  std::printf("== async: 4 perturbed scenarios + 1 repeat ==\n");
  std::vector<service::Ticket> tickets;
  for (double l_max : {2.0, 3.0, 4.5, 5.0, 6.0}) {
    service::TuningQuery pq = q;
    pq.scenario.requirements.l_max = l_max;
    tickets.push_back(service.submit(pq));
  }
  // The dispatcher micro-batches whatever is queued: each of the four
  // distinct Lmax values is one solve per protocol, fanned together, and
  // the repeat of Lmax = 6 (already cached from step 1) never reaches the
  // engine.
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    auto r = service.wait(tickets[i]);
    if (!r.ok()) continue;
    std::printf("  ticket %zu: recommended %s\n", i,
                r->recommended >= 0
                    ? r->per_protocol[r->recommended].protocol.c_str()
                    : "(none feasible)");
  }

  // --- 3. the same queries again: pure cache hits -----------------------
  for (double l_max : {2.0, 3.0, 4.5, 5.0, 6.0}) {
    service::TuningQuery pq = q;
    pq.scenario.requirements.l_max = l_max;
    service.query(pq);
  }

  const auto stats = service.stats();
  std::printf("\n== service stats ==\n");
  std::printf("queries      : %zu submitted, %zu completed\n",
              stats.submitted, stats.completed);
  std::printf("cache        : %zu hits / %zu misses (hit rate %.2f), "
              "%zu entries\n",
              stats.cache.hits, stats.cache.misses, stats.cache.hit_rate(),
              stats.cache.entries);
  std::printf("planner      : %zu solves, %zu coalesced\n",
              stats.planner.solved, stats.planner.coalesced);
  // Serving latency lives in the metrics registry (service/dispatcher.h).
  const LatencyHistogram latency =
      obs::Registry::global().histogram("service.latency").merged();
  std::printf("latency      : p50 %.2f ms, p95 %.2f ms over %zu queries\n",
              latency.quantile(0.50) * 1e3, latency.quantile(0.95) * 1e3,
              latency.count());
  return 0;
}
