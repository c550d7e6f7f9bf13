// Transport-free serving core: cache + planner + engine, no threads.
//
// ServiceCore is the part of the tuning service every front door shares —
// the value-preserving result cache, the batch planner's dedup/coalesce/
// warm-chain pipeline and the scenario engine it fans misses through —
// with no threads, no tickets, no sockets and no admission control.  The
// one serving shell in front of it is service::Dispatcher
// (service/dispatcher.h), which both front doors — TuningService
// (service/service.h) and TuningServer (server/server.h) — wrap.  Benches
// and tests that want the pipeline without any dispatch machinery call
// serve() directly.
//
// Thread-safety: NOT thread-safe.  Exactly one thread may call serve()
// at a time (the planner mutates state and enters the engine's
// deterministic pool); the dispatcher's serve thread is that thread.
// cancel() is the exception — any thread may trip the cooperative-
// cancellation token (shutdown paths do).
//
// Determinism: serve() is value-preserving — every result's outcomes and
// feasibility flags are bit-identical to a cold sequential core::run_sweep
// over the same canonical inputs, which is what makes the server tier's
// wire-vs-in-process byte-identity gate possible (DESIGN.md §11).  A
// warm-chained dead cell's infeasibility reason is envelope-derived and
// can name another stage than the cold pipeline's (rare; DESIGN.md §4).
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/engine.h"
#include "service/cache.h"
#include "service/planner.h"
#include "service/resilience.h"

namespace edb::service {

struct CoreOptions {
  core::EngineOptions engine;         // miss-path engine configuration
  std::size_t cache_capacity = 4096;  // protocol outcomes; 0 = no caching
  std::size_t cache_shards = 16;
  // Degradation ladder (service/resilience.h): serve stale/coarse answers
  // instead of transient miss-path errors.
  bool degrade = true;
};

// Everything a front door configures about serving (the socket tier's
// ServerOptions extends it with listener and wire limits).
struct ServiceOptions : CoreOptions {
  std::size_t max_batch = 64;  // queries per ServiceCore::serve call
  // Admission control; the defaults admit everything (unbounded queue,
  // no limiter).
  ResilienceOptions resilience;
};

struct ServiceStats {
  CacheStats cache;
  PlannerStats planner;
  std::size_t submitted = 0;
  std::size_t admitted = 0;  // reached the queue (submitted minus rejected)
  std::size_t completed = 0;
  std::size_t in_flight = 0;
  std::size_t shed = 0;  // admissions rejected (queue bound / rate limit)
  std::size_t latency_samples = 0;
  double p50_ms = 0;  // serving latency percentiles, admit -> done
  double p95_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double queue_wait_p50_ms = 0;  // the queue-wait share, admit -> batch start
  double queue_wait_p99_ms = 0;
};

class ServiceCore {
 public:
  explicit ServiceCore(const CoreOptions& opts);

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  // Answers one batch; slot i answers queries[i].  Single caller at a
  // time (see header comment).
  std::vector<Expected<TuningResult>> serve(
      const std::vector<TuningQuery>& queries);

  // Trips the cooperative-cancellation token threaded into every
  // miss-path solve: in-flight batches return kCancelled at the next
  // solver stage boundary.  Callable from any thread; irreversible.
  void cancel() { cancel_.store(true, std::memory_order_relaxed); }

  CacheStats cache_stats() const { return cache_.stats(); }
  // Valid between serve() calls only (same exclusion as serve itself).
  const PlannerStats& planner_stats() const { return planner_.stats(); }

 private:
  ShardedResultCache cache_;
  core::ScenarioEngine engine_;
  BatchPlanner planner_;
  std::atomic<bool> cancel_{false};
};

}  // namespace edb::service
