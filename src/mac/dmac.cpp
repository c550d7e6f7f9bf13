#include "mac/dmac.h"

#include <algorithm>

#include "util/simd.h"

namespace edb::mac {

DmacModel::DmacModel(ModelContext ctx, DmacConfig cfg)
    : AnalyticMacModel(std::move(ctx)), cfg_(cfg),
      space_({{"T", cfg.t_cycle_min, cfg.t_cycle_max, "s"}}) {
  EDB_ASSERT(cfg_.t_cycle_min > 0 && cfg_.t_cycle_min < cfg_.t_cycle_max,
             "DMAC cycle bounds invalid");
  // The staggered schedule needs one slot per ring plus the sink's slot.
  EDB_ASSERT(cfg_.t_cycle_min >
                 (ctx_.ring.depth + 1) * slot_width(),
             "minimum cycle too short for the staggered schedule");
  EDB_ASSERT(cfg_.k_chain >= 1.0, "k_chain must be >= 1");

  // Batch-kernel invariants (mac/dmac.h): scalar-path expressions over
  // the now-frozen ctx/cfg.
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  const int depth = ctx_.ring.depth;
  bc_.mu = slot_width();
  bc_.cs_num = 2.0 * bc_.mu * r.p_rx;
  const double e_tx_pkt = 0.5 * cfg_.t_cw * r.p_rx +
                          p.data_airtime(r) * r.p_tx +
                          p.ack_airtime(r) * r.p_rx;
  bc_.stx = p.sync_airtime(r) * r.p_tx / cfg_.sync_period;
  bc_.srx = (p.sync_airtime(r) + 2.0 * cfg_.sync_guard) * r.p_rx /
            cfg_.sync_period;
  bc_.tx_d.resize(depth);
  bc_.rx_d.resize(depth);
  bc_.load.resize(depth);
  for (int d = 1; d <= depth; ++d) {
    bc_.tx_d[d - 1] = traffic.f_out(d) * e_tx_pkt;
    bc_.rx_d[d - 1] = traffic.f_in(d) * p.ack_airtime(r) * r.p_tx;
    bc_.load[d - 1] = traffic.ring_load(d);
  }
  bc_.f_out1 = traffic.f_out(1);
  bc_.needed = (ctx_.ring.depth + 1) * bc_.mu;
  bc_.v2 = ctx_.model_version == ModelVersion::kV2Queueing;
  bc_.qk = 0.5 * ctx_.traffic_model().squared_cv();
  bc_.burst = ctx_.arrivals == net::ArrivalProcess::kBursty;
  const double b = ctx_.burst_factor;
  bc_.bfac = b;
  bc_.half_t_on = 0.5 * ((b - 1.0) / b * (1.0 / ctx_.fs));
}

namespace {

double slot_width_of(const ModelContext& ctx, const DmacConfig& cfg) {
  const auto& r = ctx.radio;
  const auto& p = ctx.packet;
  return cfg.t_cw + p.data_airtime(r) + p.ack_airtime(r) +
         2.0 * r.t_turnaround;
}

}  // namespace

DmacConfig DmacModel::default_config(const ModelContext& ctx) {
  DmacConfig cfg;
  const double floor = (ctx.ring.depth + 1) * slot_width_of(ctx, cfg);
  if (cfg.t_cycle_min <= floor) {
    cfg.t_cycle_min = 1.05 * floor;
    cfg.t_cycle_max = std::max(cfg.t_cycle_max, 8.0 * cfg.t_cycle_min);
  }
  return cfg;
}

double DmacModel::slot_width() const { return slot_width_of(ctx_, cfg_); }

PowerBreakdown DmacModel::power_at_ring(const std::vector<double>& x,
                                        int d) const {
  check_params(x);
  const double t_cycle = x[0];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  const double mu = slot_width();

  PowerBreakdown out;
  out.cs = 2.0 * mu * r.p_rx / t_cycle;

  out.tx = traffic.f_out(d) *
           (0.5 * cfg_.t_cw * r.p_rx + p.data_airtime(r) * r.p_tx +
            p.ack_airtime(r) * r.p_rx);

  out.rx = traffic.f_in(d) * p.ack_airtime(r) * r.p_tx;

  out.ovr = 0.0;  // overhearing happens inside the mandatory slots (cs)

  out.stx = p.sync_airtime(r) * r.p_tx / cfg_.sync_period;
  out.srx = (p.sync_airtime(r) + 2.0 * cfg_.sync_guard) * r.p_rx /
            cfg_.sync_period;

  out.sleep = r.p_sleep;
  return out;
}

double DmacModel::hop_latency(const std::vector<double>& x, int) const {
  check_params(x);
  return slot_width();
}

double DmacModel::source_wait(const std::vector<double>& x) const {
  check_params(x);
  // Uniform packet generation inside the cycle: expected wait for the
  // node's next transmit slot is half a cycle.
  return 0.5 * x[0];
}

double DmacModel::service_time(const std::vector<double>& x) const {
  check_params(x);
  return x[0];
}

void DmacModel::evaluate_batch(const double* xs, std::size_t n,
                               double* energies, double* latencies,
                               double* margins) const {
  check_block(xs, n);
  const BatchCoeffs& c = bc_;
  const int depth = ctx_.ring.depth;
  const double p_sleep = ctx_.radio.p_sleep;

  // SIMD main loop: the scalar expressions below, lane-wise, in the same
  // association order (util/simd.h lane contract).
  using util::DoubleLanes;
  constexpr std::size_t W = DoubleLanes::kWidth;
  const DoubleLanes half = DoubleLanes::broadcast(0.5);
  const DoubleLanes sleep_b = DoubleLanes::broadcast(p_sleep);
  const DoubleLanes stx_b = DoubleLanes::broadcast(c.stx);
  const DoubleLanes srx_b = DoubleLanes::broadcast(c.srx);
  const DoubleLanes mu_b = DoubleLanes::broadcast(c.mu);

  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const DoubleLanes t_cycle = DoubleLanes::load(xs + i);
    if (energies) {
      const DoubleLanes cs = DoubleLanes::broadcast(c.cs_num) / t_cycle;
      DoubleLanes worst = DoubleLanes::broadcast(0.0);
      for (int d = 0; d < depth; ++d) {
        const DoubleLanes total = cs + DoubleLanes::broadcast(c.tx_d[d]) +
                                  DoubleLanes::broadcast(c.rx_d[d]) + stx_b +
                                  srx_b + sleep_b;
        worst = util::max(worst, total);
      }
      (worst * DoubleLanes::broadcast(ctx_.energy_epoch)).store(energies + i);
    }
    if (latencies) {
      DoubleLanes total = half * t_cycle;  // source_wait: half a cycle
      for (int d = 0; d < depth; ++d) total = total + mu_b;
      if (c.v2) {
        // Ring-as-server wait with service quantum T — one contended data
        // slot per cycle (mac/model.h queueing_delay association order).
        const DoubleLanes qk_b = DoubleLanes::broadcast(c.qk);
        const DoubleLanes one = DoubleLanes::broadcast(1.0);
        const DoubleLanes zero = DoubleLanes::broadcast(0.0);
        DoubleLanes q = zero;
        for (int d = 0; d < depth; ++d) {
          const DoubleLanes rho = DoubleLanes::broadcast(c.load[d]) * t_cycle;
          q = q + qk_b * rho * t_cycle / (one - rho);
        }
        if (c.burst) {
          const DoubleLanes rho1 = DoubleLanes::broadcast(c.load[0]) * t_cycle;
          const DoubleLanes w = util::max(
              zero, one - one / (DoubleLanes::broadcast(c.bfac) * rho1));
          q = q + w * DoubleLanes::broadcast(c.half_t_on);
        }
        total = total + q;
      }
      total.store(latencies + i);
    }
    if (margins) {
      const DoubleLanes load = DoubleLanes::broadcast(c.f_out1) * t_cycle;
      const DoubleLanes k_chain = DoubleLanes::broadcast(cfg_.k_chain);
      const DoubleLanes m_capacity = (k_chain - load) / k_chain;
      const DoubleLanes m_schedule =
          (t_cycle - DoubleLanes::broadcast(c.needed)) / t_cycle;
      const DoubleLanes m_v1 = util::min(m_capacity, m_schedule);
      if (c.v2) {
        const DoubleLanes cap = DoubleLanes::broadcast(kQueueStabilityCap);
        const DoubleLanes rho = DoubleLanes::broadcast(c.load[0]) * t_cycle;
        util::min(m_v1, (cap - rho) / cap).store(margins + i);
      } else {
        m_v1.store(margins + i);
      }
    }
  }

  // Scalar tail (also the bit-parity reference for the lanes above).
  for (; i < n; ++i) {
    const double t_cycle = xs[i];
    if (energies) {
      const double cs = c.cs_num / t_cycle;
      double worst = 0.0;
      for (int d = 0; d < depth; ++d) {
        // total() order with the zero ovr term elided (bit-preserving).
        const double total =
            cs + c.tx_d[d] + c.rx_d[d] + c.stx + c.srx + p_sleep;
        worst = std::max(worst, total);
      }
      energies[i] = worst * ctx_.energy_epoch;
    }
    if (latencies) {
      double total = 0.5 * t_cycle;  // source_wait: half a cycle
      for (int d = 0; d < depth; ++d) total += c.mu;
      if (c.v2) {
        double q = 0.0;
        for (int d = 0; d < depth; ++d) {
          const double rho = c.load[d] * t_cycle;
          q += c.qk * rho * t_cycle / (1.0 - rho);
        }
        if (c.burst) {
          const double rho1 = c.load[0] * t_cycle;
          const double w = std::max(0.0, 1.0 - 1.0 / (c.bfac * rho1));
          q += w * c.half_t_on;
        }
        total += q;
      }
      latencies[i] = total;
    }
    if (margins) {
      const double load = c.f_out1 * t_cycle;
      const double m_capacity = (cfg_.k_chain - load) / cfg_.k_chain;
      const double m_schedule = (t_cycle - c.needed) / t_cycle;
      const double m_v1 = std::min(m_capacity, m_schedule);
      if (c.v2) {
        const double rho = c.load[0] * t_cycle;
        const double m_stab =
            (kQueueStabilityCap - rho) / kQueueStabilityCap;
        margins[i] = std::min(m_v1, m_stab);
      } else {
        margins[i] = m_v1;
      }
    }
  }
}

double DmacModel::protocol_margin(const std::vector<double>& x) const {
  check_params(x);
  const double t_cycle = x[0];
  const net::RingTraffic traffic = ctx_.traffic();

  // Per-cycle chaining capacity at the bottleneck.
  const double load = traffic.f_out(1) * t_cycle;
  const double m_capacity = (cfg_.k_chain - load) / cfg_.k_chain;

  // Staggered schedule must fit in the cycle.
  const double needed = (ctx_.ring.depth + 1) * slot_width();
  const double m_schedule = (t_cycle - needed) / t_cycle;

  return std::min(m_capacity, m_schedule);
}

}  // namespace edb::mac
