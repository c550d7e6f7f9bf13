// The tuning service's vocabulary: one query, its answer, and the
// counters of the miss pipeline that answers it.  The pipeline itself —
// resolve, dedup, solve, install — is ServiceCore::serve
// (service/core.h).
#pragma once

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
  std::size_t solved = 0;      // distinct misses solved by the engine
  std::size_t sweep_jobs = 0;  // engine jobs for them; always == solved
  // Resilience counters (DESIGN.md §10).
  std::size_t transient_failures = 0;  // miss-path slots that failed transiently
  std::size_t degraded_stale = 0;      // slots served by a stale re-read
  std::size_t degraded_coarse = 0;     // slots served by a coarse solve
};

}  // namespace edb::service
