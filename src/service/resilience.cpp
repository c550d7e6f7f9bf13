#include "service/resilience.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace edb::service {

const char* quality_name(ResultQuality q) {
  switch (q) {
    case ResultQuality::kFull: return "full";
    case ResultQuality::kStale: return "stale";
    case ResultQuality::kCoarse: return "coarse";
  }
  return "unknown";
}

TokenBucket::TokenBucket(double rate_qps, double burst)
    : rate_(rate_qps), burst_(std::max(burst, 1.0)), tokens_(burst_),
      last_(std::chrono::steady_clock::now()) {}

bool TokenBucket::try_acquire() {
  if (!enabled()) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  const double elapsed = std::chrono::duration<double>(now - last_).count();
  last_ = now;
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

TenantLimiter::TenantLimiter(const std::vector<TenantLimit>& limits) {
  for (const TenantLimit& l : limits) {
    if (l.qps <= 0) continue;
    const std::string name =
        l.tenant.empty() ? std::string(kDefaultTenant) : l.tenant;
    buckets_[name] = std::make_unique<TokenBucket>(l.qps, l.burst);
  }
}

bool TenantLimiter::try_acquire(std::string_view tenant) {
  if (buckets_.empty()) return true;
  const auto it = buckets_.find(
      std::string(tenant.empty() ? kDefaultTenant : tenant));
  return it == buckets_.end() || it->second->try_acquire();
}

void TenantLimiter::count_shed(std::string_view tenant) const {
  obs::Registry& registry = obs::Registry::global();
  registry.counter("service.shed").add(1);
  const std::string name(tenant.empty() ? kDefaultTenant : tenant);
  if (name == kDefaultTenant || buckets_.count(name) != 0) {
    registry.counter("service.shed." + name).add(1);
  }
}

namespace {

obs::Counter& error_counter(ErrorCode code) {
  // One registry lookup per call: error paths are cold by definition, and
  // the counter set stays open-ended as codes are added.
  return obs::Registry::global().counter(std::string("service.errors.") +
                                         error_code_name(code));
}

}  // namespace

void count_service_error(ErrorCode code) { error_counter(code).add(1); }

std::uint64_t service_error_count(ErrorCode code) {
  return error_counter(code).value();
}

void count_degraded(ResultQuality quality) {
  if (quality == ResultQuality::kFull) return;
  obs::Registry::global()
      .counter(std::string("service.degraded.") + quality_name(quality))
      .add(1);
}

}  // namespace edb::service
