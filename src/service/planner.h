// Batch planner: the tuning service's miss pipeline.
//
// A batch of queries goes through four deterministic stages:
//
//   1. resolve  — validate the scenario, canonicalize the protocol set,
//                 derive one cache key per (query, protocol);
//   2. dedup    — look every key up in the sharded cache; among the
//                 misses, coalesce keys that repeat within the batch so
//                 each distinct question is solved exactly once;
//   3. group    — hand the remaining distinct misses to
//                 core::plan_point_queries, which folds queries differing
//                 only in Lmax into sweeps, and fan every cell of those
//                 sweeps through the scenario engine as one cold solve;
//   4. install  — write every solved outcome into the cache and scatter it
//                 to all the queries that asked.
//
// Serving results are bit-identical to a cold sequential core::run_sweep
// over the same canonical inputs: the cache is value-preserving by
// construction (service/cache.h) and the engine's width never changes a
// cell (core/engine.h).
//
// Thread-safety: a BatchPlanner is NOT thread-safe — run() mutates
// planner state and enters the engine's deterministic pool, so exactly
// one thread may call run() at a time and stats() must not race it.  The
// TuningService dispatcher thread provides that serialization; only
// embedders driving a planner directly need to care.  The referenced
// engine and cache must outlive the planner.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "core/engine.h"
#include "service/cache.h"
#include "service/key.h"
#include "service/resilience.h"

namespace edb::service {

// One serving question: which protocol and operating point fit this
// deployment?  An empty protocol list means the paper's three.
struct TuningQuery {
  core::Scenario scenario;
  std::vector<std::string> protocols;
  QueryOptions options;
  // Caller identity for per-tenant admission control
  // (service/resilience.h); empty means kDefaultTenant.  The socket tier
  // stamps it from the connection handshake.  Deliberately NOT part of
  // the canonical key: who asks never changes the answer, so tenants
  // share one cache (and the golden key pins must not move).
  std::string tenant;
};

struct TuningResult {
  QueryKey key;  // canonical whole-query key (service/key.h)
  std::vector<ProtocolOutcome> per_protocol;  // canonical protocol order
  // Index into per_protocol of the recommended protocol — the feasible
  // agreement with the largest energy headroom (Ebudget - E*), the
  // ranking of examples/protocol_selection.  -1 when nothing is feasible.
  int recommended = -1;
  // Worst degradation rung across the slots that fed this result
  // (service/resilience.h): kFull is the bit-identical-to-cold contract;
  // kStale/kCoarse mark answers served down the degradation ladder after
  // a transient miss-path failure or deadline blow-out.
  ResultQuality quality = ResultQuality::kFull;
};

struct PlannerStats {
  std::size_t batches = 0;
  std::size_t queries = 0;
  std::size_t protocol_queries = 0;  // (query, protocol) lookups
  std::size_t cache_hits = 0;
  std::size_t coalesced = 0;   // within-batch duplicate lookups
  std::size_t solved = 0;      // cells actually solved by the engine
  std::size_t sweep_jobs = 0;  // sweeps those cells were grouped into
  // Resilience counters (DESIGN.md §10).
  std::size_t transient_failures = 0;  // miss-path slots that failed transiently
  std::size_t degraded_stale = 0;      // slots served by a stale re-read
  std::size_t degraded_coarse = 0;     // slots served by a coarse solve
};

class BatchPlanner {
 public:
  // Both must outlive the planner.
  BatchPlanner(core::ScenarioEngine& engine, ShardedResultCache& cache);

  // Answers one batch; slot i answers queries[i].  Per-query errors
  // (invalid scenario, unknown protocol) come back in the slot, not as a
  // batch failure.  Not thread-safe: callers serialize batches (the
  // service's dispatcher thread does).
  std::vector<Expected<TuningResult>> run(
      const std::vector<TuningQuery>& queries);

  const PlannerStats& stats() const { return stats_; }

  // Cooperative cancellation token threaded into every miss-path solve
  // (core::SolveControl); the pointee must outlive the planner.  Set once
  // at service construction, before any batch runs.
  void set_cancel(const std::atomic<bool>* cancel) { cancel_ = cancel; }
  // Degradation ladder on/off (CoreOptions::degrade).  When off,
  // transient miss-path failures fail the whole query with their own code.
  void set_degrade(bool degrade) { degrade_ = degrade; }

 private:
  core::ScenarioEngine& engine_;
  ShardedResultCache& cache_;
  PlannerStats stats_;
  const std::atomic<bool>* cancel_ = nullptr;
  bool degrade_ = true;
};

}  // namespace edb::service
