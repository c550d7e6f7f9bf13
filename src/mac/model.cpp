#include "mac/model.h"

#include <algorithm>

#include "util/math.h"

namespace edb::mac {

ParamSpace::ParamSpace(std::vector<ParamInfo> params)
    : params_(std::move(params)) {
  for (const ParamInfo& p : params_) {
    EDB_ASSERT(p.lo < p.hi, "parameter bounds must satisfy lo < hi");
  }
}

const ParamInfo& ParamSpace::info(std::size_t i) const {
  EDB_ASSERT(i < params_.size(), "parameter index out of range");
  return params_[i];
}

std::vector<double> ParamSpace::lower() const {
  std::vector<double> out;
  out.reserve(params_.size());
  for (const auto& p : params_) out.push_back(p.lo);
  return out;
}

std::vector<double> ParamSpace::upper() const {
  std::vector<double> out;
  out.reserve(params_.size());
  for (const auto& p : params_) out.push_back(p.hi);
  return out;
}

std::vector<double> ParamSpace::midpoint() const {
  std::vector<double> out;
  out.reserve(params_.size());
  for (const auto& p : params_) out.push_back(0.5 * (p.lo + p.hi));
  return out;
}

std::vector<double> ParamSpace::clamp(std::vector<double> x) const {
  EDB_ASSERT(x.size() == params_.size(), "parameter dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = edb::clamp(x[i], params_[i].lo, params_[i].hi);
  }
  return x;
}

bool ParamSpace::contains(const std::vector<double>& x, double tol) const {
  if (x.size() != params_.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < params_[i].lo - tol || x[i] > params_[i].hi + tol) return false;
  }
  return true;
}

Expected<bool> ModelContext::validate() const {
  if (auto r = radio.validate(); !r.ok()) return r;
  if (auto r = packet.validate(); !r.ok()) return r;
  if (auto r = ring.validate(); !r.ok()) return r;
  if (fs <= 0.0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "sampling rate must be positive");
  }
  if (energy_epoch <= 0.0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "energy epoch must be positive");
  }
  // The arrival-shape knobs must form a valid per-source process (the
  // kV2Queueing term takes its interval moments from it).
  if (auto r = traffic_model().validate(); !r.ok()) return r;
  return true;
}

AnalyticMacModel::AnalyticMacModel(ModelContext ctx) : ctx_(std::move(ctx)) {
  EDB_ASSERT(ctx_.validate().ok(), "invalid model context");
}

double AnalyticMacModel::source_wait(const std::vector<double>&) const {
  return 0.0;
}

double AnalyticMacModel::service_time(const std::vector<double>& x) const {
  return hop_latency(x, 1);
}

double AnalyticMacModel::ring_service_quantum(const std::vector<double>& x,
                                              int) const {
  return service_time(x);
}

// NOTE: every batch kernel takes its kV2Queueing term from
// UniformQueue::delay_rings (mac/model.h), which replicates this
// function's association order term by term; any change here must be
// mirrored there or the hex-float parity tests fail.
double AnalyticMacModel::queueing_delay(const std::vector<double>& x) const {
  const double qk = 0.5 * ctx_.traffic_model().squared_cv();
  const net::RingTraffic traffic = ctx_.traffic();
  double q = 0.0;
  for (int d = 1; d <= ctx_.ring.depth; ++d) {
    const double s = ring_service_quantum(x, d);
    const double rho = traffic.ring_load(d) * s;
    q += qk * rho * s / (1.0 - rho);
  }
  if (ctx_.arrivals == net::ArrivalProcess::kBursty) {
    // Transient backlog at the aggregation bottleneck (ring 1): during a
    // source's on-period the instantaneous inflow is B times the mean,
    // and whatever exceeds the ring's drain rate piles up.  Zero (via the
    // max) whenever the burst-period utilization stays below 1.
    const double b = ctx_.burst_factor;
    const double rho1 = traffic.ring_load(1) * ring_service_quantum(x, 1);
    const double w = std::max(0.0, 1.0 - 1.0 / (b * rho1));
    q += w * (0.5 * ((b - 1.0) / b * (1.0 / ctx_.fs)));
  }
  return q;
}

double AnalyticMacModel::feasibility_margin(
    const std::vector<double>& x) const {
  const double m = protocol_margin(x);
  if (ctx_.model_version == ModelVersion::kV2Queueing) {
    return std::min(m, stability_margin(x));
  }
  return m;
}

double AnalyticMacModel::stability_margin(const std::vector<double>& x) const {
  // ring_load is maximal at ring 1 while the TDMA quantum shrinks outward,
  // so the ring-1 utilization bounds them all for every registered
  // protocol.
  const double rho =
      ctx_.traffic().ring_load(1) * ring_service_quantum(x, 1);
  return (kQueueStabilityCap - rho) / kQueueStabilityCap;
}

void AnalyticMacModel::check_params(const std::vector<double>& x) const {
  EDB_ASSERT(x.size() == params().dim(), "parameter dimension mismatch");
  EDB_ASSERT(params().contains(x, 1e-9),
             "parameter vector outside the model's box");
}

void AnalyticMacModel::check_block(const double* xs, std::size_t n) const {
  const ParamSpace& ps = params();
  constexpr double tol = 1e-9;  // matches check_params
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = xs + i * ps.dim();
    for (std::size_t j = 0; j < ps.dim(); ++j) {
      const ParamInfo& info = ps.info(j);
      EDB_ASSERT(p[j] >= info.lo - tol && p[j] <= info.hi + tol,
                 "parameter vector outside the model's box");
    }
  }
}

double AnalyticMacModel::energy(const std::vector<double>& x) const {
  double worst = 0.0;
  for (int d = 1; d <= ctx_.ring.depth; ++d) {
    worst = std::max(worst, power_at_ring(x, d).total());
  }
  return worst * ctx_.energy_epoch;
}

PowerBreakdown AnalyticMacModel::energy_breakdown(const std::vector<double>& x,
                                                  int d) const {
  PowerBreakdown p = power_at_ring(x, d);
  p.cs *= ctx_.energy_epoch;
  p.tx *= ctx_.energy_epoch;
  p.rx *= ctx_.energy_epoch;
  p.ovr *= ctx_.energy_epoch;
  p.stx *= ctx_.energy_epoch;
  p.srx *= ctx_.energy_epoch;
  p.sleep *= ctx_.energy_epoch;
  return p;
}

int AnalyticMacModel::bottleneck_ring(const std::vector<double>& x) const {
  int best = 1;
  double worst = -1.0;
  for (int d = 1; d <= ctx_.ring.depth; ++d) {
    const double p = power_at_ring(x, d).total();
    if (p > worst) {
      worst = p;
      best = d;
    }
  }
  return best;
}

double AnalyticMacModel::latency(const std::vector<double>& x) const {
  double total = source_wait(x);
  for (int d = 1; d <= ctx_.ring.depth; ++d) total += hop_latency(x, d);
  // kV2Queueing adds the accumulated waiting term as one final addend, so
  // the kV1 partial sums above stay bit-identical to the pre-kV2 path and
  // the batch kernels can mirror the association order exactly.
  if (ctx_.model_version == ModelVersion::kV2Queueing) {
    total += queueing_delay(x);
  }
  return total;
}

AnalyticMacModel::UniformQueue::UniformQueue(const ModelContext& ctx)
    : v2(ctx.model_version == ModelVersion::kV2Queueing),
      burst(ctx.arrivals == net::ArrivalProcess::kBursty),
      qk(0.5 * ctx.traffic_model().squared_cv()),
      bfac(ctx.burst_factor),
      half_t_on(0.5 * ((bfac - 1.0) / bfac * (1.0 / ctx.fs))) {
  const net::RingTraffic traffic = ctx.traffic();
  for (int d = 1; d <= ctx.ring.depth; ++d) {
    load.push_back(traffic.ring_load(d));
  }
}

// Out of line, so the scalar kernels' kV1 loops stay free of the queue
// loop's code.
double AnalyticMacModel::UniformQueue::delay(double s) const {
  return delay(util::OneLane{s}).v;
}

double AnalyticMacModel::UniformQueue::stability(double s) const {
  return stability(util::OneLane{s}).v;
}

}  // namespace edb::mac
