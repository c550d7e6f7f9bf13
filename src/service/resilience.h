// Resilience machinery for the serving pipeline (DESIGN.md §10).
//
// Three concerns live here, all exercised by the fault-injection framework
// (util/fault.h) and gated by bench/chaos_service:
//
//   admission control — the limits and the wall-clock token buckets that
//     enforce them; the dispatcher (service/dispatcher.h) applies them at
//     the front door, shedding with kResourceExhausted.
//
//   degradation ladder — when the miss path fails transiently (injected
//     fault, deadline blow-out), the planner serves the best answer it can
//     instead of an error: first a stale cache re-read, then a coarse-grid
//     quick answer (core::SolverMode::kCoarse).  Every served result says
//     which rung produced it via TuningResult::quality; degraded results
//     are never cached (they are answers about *this attempt*, not the
//     question).
//
//   error accounting — per-code "service.errors.<code>" counters on the
//     process-wide metrics registry (obs/metrics.h), always on (the chaos
//     bench and ServiceStats read them), plus shed/degraded counters.
//
// Determinism: admission decisions depend on wall-clock load and are NOT
// reproducible across thread counts — that is inherent to backpressure.
// Everything else (which query faults, which rung serves it, the served
// bits) is a pure function of the query's canonical identity and the
// fault plan, which is what the chaos bench's byte-identity gate checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/error.h"

namespace edb::service {

// Which rung of the degradation ladder produced a served result.
enum class ResultQuality {
  kFull,    // the normal pipeline: fresh solve or value-preserving cache
  kStale,   // cache re-read after a transient miss-path failure
  kCoarse,  // coarse-grid quick answer (stage-1 basin, no polish)
};

const char* quality_name(ResultQuality q);

// Per-tenant admission quota (ROADMAP item 1's "per-tenant rate
// limiting").  A tenant is a caller identity: the wire header carries it
// per connection (server/wire.h HELLO), in-process callers may set
// TuningQuery::tenant; empty means kDefaultTenant.  Only configured
// tenants are limited — everyone else passes the per-tenant stage and
// still answers to the global bucket.
struct TenantLimit {
  std::string tenant;
  double qps = 0;     // queries/second; <= 0 disables this entry
  double burst = 64;  // bucket capacity in tokens
};

inline constexpr std::string_view kDefaultTenant = "default";

struct ResilienceOptions {
  // Bounded submit queue: submissions beyond this depth are shed with
  // kResourceExhausted.  0 = unbounded (the historical behaviour).
  std::size_t max_queue = 0;
  // Token-bucket rate limit on admissions, in queries/second; 0 = off.
  double rate_limit_qps = 0;
  // Bucket capacity in tokens: the burst the limiter absorbs at full rate.
  double rate_burst = 64;
  // Per-tenant token buckets layered under the global one (empty = off).
  std::vector<TenantLimit> tenant_limits;
};

// Wall-clock token bucket.  try_acquire() is thread-safe; tokens refill
// continuously at rate_qps up to burst.  A zero/negative rate disables
// the limiter (every acquire succeeds).
class TokenBucket {
 public:
  TokenBucket(double rate_qps, double burst);

  bool try_acquire();
  bool enabled() const { return rate_ > 0; }

 private:
  const double rate_;
  const double burst_;
  std::mutex mutex_;
  double tokens_;
  std::chrono::steady_clock::time_point last_;
};

// Per-tenant admission limiter: one TokenBucket per configured tenant.
// The bucket map is fixed at construction, so try_acquire() needs no map
// lock — it is as thread-safe as TokenBucket itself.  Tenants without an
// entry are admitted unconditionally (the global bucket still applies).
class TenantLimiter {
 public:
  explicit TenantLimiter(const std::vector<TenantLimit>& limits);

  // Normalises an empty tenant to kDefaultTenant, then charges that
  // tenant's bucket.  True when admitted (or the tenant is unlimited).
  bool try_acquire(std::string_view tenant);

  // Counts one shed query into "service.shed" and, when the tenant is
  // configured here or is kDefaultTenant, into "service.shed.<tenant>".
  // Other tenant names come from callers and are unbounded, so they get
  // no registry entry of their own.
  void count_shed(std::string_view tenant) const;

 private:
  std::unordered_map<std::string, std::unique_ptr<TokenBucket>> buckets_;
};

// Per-code error accounting on the metrics registry: counts into
// "service.errors.<error_code_name>".  Always on — ServiceStats and the
// chaos bench read these, so they are load-bearing, not telemetry.
void count_service_error(ErrorCode code);
std::uint64_t service_error_count(ErrorCode code);

// Degradation accounting ("service.degraded.stale",
// "service.degraded.coarse"); sheds count via TenantLimiter::count_shed.
void count_degraded(ResultQuality quality);

}  // namespace edb::service
