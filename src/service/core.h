// Transport-free serving core: cache + miss pipeline + engine, no threads.
//
// ServiceCore is the part of the tuning service every front door shares —
// the value-preserving result cache, the miss pipeline and the scenario
// engine it fans misses through — with no threads, no tickets, no
// sockets and no admission control.  The one serving shell in front of
// it is service::Dispatcher (service/dispatcher.h), which both front
// doors — TuningService (service/service.h) and TuningServer
// (server/server.h) — wrap.  Benches and tests that want the pipeline
// without any dispatch machinery call serve() directly.
//
// serve() runs a batch through four deterministic stages, carrying one
// QueryKey per (query, protocol) from lookup to install:
//
//   1. resolve  — validate the scenario, canonicalize the protocol set,
//                 derive one cache key per (query, protocol);
//   2. dedup    — look every key up in the sharded cache; among the
//                 misses, coalesce keys that repeat within the batch so
//                 each distinct question is solved exactly once;
//   3. solve    — build each distinct miss its own model and fan the
//                 misses through the scenario engine's solve_batch, one
//                 cold solve per miss;
//   4. install  — write every solved outcome into the cache and scatter it
//                 to all the queries that asked; a transient failure is
//                 served down the degradation ladder (service/resilience.h).
//
// Thread-safety: NOT thread-safe.  Exactly one thread may call serve()
// at a time (the pipeline mutates its counters and enters the engine's
// deterministic pool); the dispatcher's serve thread is that thread.
// cancel() is the exception — any thread may trip the cooperative-
// cancellation token (shutdown paths do).
//
// Determinism: serve() is value-preserving — every result's outcomes,
// feasibility flags and infeasibility reasons are bit-identical to a cold
// sequential core::run_sweep over the same canonical inputs (the cache is
// value-preserving by construction, service/cache.h, and the engine's
// width never changes a cell, core/engine.h), which is what makes the
// server tier's wire-vs-in-process byte-identity gate possible
// (DESIGN.md §11).
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
};

// Everything a front door configures about serving (the socket tier's
// ServerOptions extends it with listener and wire limits).
struct ServiceOptions : CoreOptions {
  std::size_t max_batch = 64;  // queries per ServiceCore::serve call
  // Admission control; the defaults admit everything (unbounded queue,
  // no limiter).
  ResilienceOptions resilience;
};

// One serving instance's counts.  Serving latency lives only in the
// metrics registry, as the process-wide "service.latency" (admit -> done)
// and "service.queue_wait" (admit -> batch start) histograms
// (service/dispatcher.h).
struct ServiceStats {
  CacheStats cache;
  PlannerStats planner;
  std::size_t submitted = 0;
  std::size_t admitted = 0;  // reached the queue (submitted minus rejected)
  std::size_t completed = 0;
  std::size_t in_flight = 0;
  std::size_t shed = 0;  // admissions rejected (queue bound / rate limit)
};

class ServiceCore {
 public:
  explicit ServiceCore(const CoreOptions& opts);

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  // Answers one batch; slot i answers queries[i].  Per-query errors
  // (invalid scenario, unknown protocol) come back in the slot, not as a
  // batch failure.  Single caller at a time (see header comment).
  std::vector<Expected<TuningResult>> serve(
      const std::vector<TuningQuery>& queries);

  // Trips the cooperative-cancellation token threaded into every
  // miss-path solve: in-flight batches return kCancelled at the next
  // solver stage boundary.  Callable from any thread; irreversible.
  void cancel() { cancel_.store(true, std::memory_order_relaxed); }

  CacheStats cache_stats() const { return cache_.stats(); }
  // Valid between serve() calls only (same exclusion as serve itself).
  const PlannerStats& planner_stats() const { return stats_; }

 private:
  ShardedResultCache cache_;
  core::ScenarioEngine engine_;
  PlannerStats stats_;
  std::atomic<bool> cancel_{false};
};

}  // namespace edb::service
