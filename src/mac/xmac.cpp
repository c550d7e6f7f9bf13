#include "mac/xmac.h"

#include <algorithm>

#include "util/simd.h"

namespace edb::mac {

XmacModel::XmacModel(ModelContext ctx, XmacConfig cfg)
    : AnalyticMacModel(std::move(ctx)), cfg_(cfg),
      space_({{"Tw", cfg.tw_min, cfg.tw_max, "s"}}) {
  EDB_ASSERT(cfg_.tw_min > 0 && cfg_.tw_min < cfg_.tw_max,
             "X-MAC wake-interval bounds invalid");
  EDB_ASSERT(cfg_.tw_min > 2.0 * strobe_period(),
             "wake interval must exceed two strobe periods");

  // Batch-kernel invariants (mac/xmac.h): every field is evaluated with
  // the scalar path's exact expression over the now-frozen ctx/cfg.
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  const int depth = ctx_.ring.depth;
  const double t_strobe = p.strobe_airtime(r);
  bc_.t_data = p.data_airtime(r);
  bc_.t_ack = p.ack_airtime(r);
  bc_.sp = strobe_period();
  const double t_gap = bc_.sp - t_strobe;
  const double rho = t_strobe / (t_strobe + t_gap);
  bc_.cs_num = r.p_rx * r.poll_duration();
  bc_.tx_k = rho * r.p_tx + (1.0 - rho) * r.p_rx;
  bc_.tx_ack = bc_.t_ack * r.p_rx;
  bc_.tx_data = bc_.t_data * r.p_tx;
  const double e_rx_pkt =
      (t_strobe + t_gap) * r.p_rx + bc_.t_ack * r.p_tx + bc_.t_data * r.p_rx;
  constexpr double kPollHitsPreamble = 0.5;  // (Tw/2) / Tw
  bc_.f_out.resize(depth);
  bc_.rx_d.resize(depth);
  bc_.ovr_d.resize(depth);
  for (int d = 1; d <= depth; ++d) {
    bc_.f_out[d - 1] = traffic.f_out(d);
    bc_.rx_d[d - 1] = traffic.f_in(d) * e_rx_pkt;
    bc_.ovr_d[d - 1] =
        traffic.f_bg(d) * kPollHitsPreamble * (t_strobe + t_gap) * r.p_rx;
  }
  bc_.fsum = traffic.f_out(1) + traffic.f_in(1);
  bc_.two_sp = 2.0 * bc_.sp;
  bc_.v2 = ctx_.model_version == ModelVersion::kV2Queueing;
  bc_.qk = 0.5 * ctx_.traffic_model().squared_cv();
  bc_.load.resize(depth);
  for (int d = 1; d <= depth; ++d) bc_.load[d - 1] = traffic.ring_load(d);
  bc_.burst = ctx_.arrivals == net::ArrivalProcess::kBursty;
  const double b = ctx_.burst_factor;
  bc_.bfac = b;
  bc_.half_t_on = 0.5 * ((b - 1.0) / b * (1.0 / ctx_.fs));
}

namespace {

double strobe_period_of(const ModelContext& ctx) {
  const auto& r = ctx.radio;
  // Strobe airtime + rx/tx turnaround + early-ACK listening gap.
  return ctx.packet.strobe_airtime(r) + 2.0 * r.t_turnaround +
         ctx.packet.ack_airtime(r);
}

}  // namespace

XmacConfig XmacModel::default_config(const ModelContext& ctx) {
  XmacConfig cfg;
  const double floor = 2.0 * strobe_period_of(ctx);
  if (cfg.tw_min <= floor) {
    cfg.tw_min = 1.05 * floor;
    cfg.tw_max = std::max(cfg.tw_max, 20.0 * cfg.tw_min);
  }
  return cfg;
}

double XmacModel::strobe_period() const { return strobe_period_of(ctx_); }

PowerBreakdown XmacModel::power_at_ring(const std::vector<double>& x,
                                        int d) const {
  check_params(x);
  const double tw = x[0];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();

  const double t_data = p.data_airtime(r);
  const double t_ack = p.ack_airtime(r);
  const double t_strobe = p.strobe_airtime(r);
  const double t_gap = strobe_period() - t_strobe;
  const double rho = t_strobe / (t_strobe + t_gap);

  PowerBreakdown out;
  out.cs = r.p_rx * r.poll_duration() / tw;

  const double e_tx_pkt = 0.5 * tw * (rho * r.p_tx + (1.0 - rho) * r.p_rx) +
                          t_ack * r.p_rx + t_data * r.p_tx;
  out.tx = traffic.f_out(d) * e_tx_pkt;

  const double e_rx_pkt =
      (t_strobe + t_gap) * r.p_rx + t_ack * r.p_tx + t_data * r.p_rx;
  out.rx = traffic.f_in(d) * e_rx_pkt;

  constexpr double kPollHitsPreamble = 0.5;  // (Tw/2) / Tw
  out.ovr = traffic.f_bg(d) * kPollHitsPreamble * (t_strobe + t_gap) * r.p_rx;

  out.sleep = r.p_sleep;
  return out;
}

double XmacModel::hop_latency(const std::vector<double>& x, int) const {
  check_params(x);
  const double tw = x[0];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  return 0.5 * tw + strobe_period() + p.ack_airtime(r) + p.data_airtime(r);
}

void XmacModel::evaluate_batch(const double* xs, std::size_t n,
                               double* energies, double* latencies,
                               double* margins) const {
  check_block(xs, n);
  const BatchCoeffs& c = bc_;
  const int depth = ctx_.ring.depth;
  const double p_sleep = ctx_.radio.p_sleep;

  // SIMD main loop: the scalar expressions below, lane-wise, in the same
  // association order (util/simd.h lane contract), so every stored double
  // is bit-identical to the scalar tail's.
  using util::DoubleLanes;
  constexpr std::size_t W = DoubleLanes::kWidth;
  const DoubleLanes half = DoubleLanes::broadcast(0.5);
  const DoubleLanes sleep_b = DoubleLanes::broadcast(p_sleep);
  const DoubleLanes zero = DoubleLanes::broadcast(0.0);

  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const DoubleLanes tw = DoubleLanes::load(xs + i);
    if (energies) {
      const DoubleLanes cs = DoubleLanes::broadcast(c.cs_num) / tw;
      const DoubleLanes e_tx_pkt =
          half * tw * DoubleLanes::broadcast(c.tx_k) +
          DoubleLanes::broadcast(c.tx_ack) + DoubleLanes::broadcast(c.tx_data);
      DoubleLanes worst = zero;
      for (int d = 0; d < depth; ++d) {
        const DoubleLanes total =
            cs + DoubleLanes::broadcast(c.f_out[d]) * e_tx_pkt +
            DoubleLanes::broadcast(c.rx_d[d]) +
            DoubleLanes::broadcast(c.ovr_d[d]) + sleep_b;
        worst = util::max(worst, total);
      }
      (worst * DoubleLanes::broadcast(ctx_.energy_epoch)).store(energies + i);
    }
    if (latencies) {
      const DoubleLanes hop = half * tw + DoubleLanes::broadcast(c.sp) +
                              DoubleLanes::broadcast(c.t_ack) +
                              DoubleLanes::broadcast(c.t_data);
      DoubleLanes total = zero;  // source_wait() is 0 for X-MAC
      for (int d = 0; d < depth; ++d) total = total + hop;
      if (c.v2) {
        // Per-ring M/G/1 wait, ring service quantum = the hop exchange
        // itself (mac/model.h queueing_delay association order), plus the
        // burst-backlog term at ring 1.
        const DoubleLanes qk_b = DoubleLanes::broadcast(c.qk);
        const DoubleLanes one = DoubleLanes::broadcast(1.0);
        DoubleLanes q = zero;
        for (int d = 0; d < depth; ++d) {
          const DoubleLanes rho = DoubleLanes::broadcast(c.load[d]) * hop;
          q = q + qk_b * rho * hop / (one - rho);
        }
        if (c.burst) {
          const DoubleLanes rho1 = DoubleLanes::broadcast(c.load[0]) * hop;
          const DoubleLanes w = util::max(
              zero, one - one / (DoubleLanes::broadcast(c.bfac) * rho1));
          q = q + w * DoubleLanes::broadcast(c.half_t_on);
        }
        total = total + q;
      }
      total.store(latencies + i);
    }
    if (margins) {
      const DoubleLanes per_pkt = half * tw +
                                  DoubleLanes::broadcast(c.t_data) +
                                  DoubleLanes::broadcast(c.t_ack);
      const DoubleLanes busy = DoubleLanes::broadcast(c.fsum) * per_pkt;
      const DoubleLanes max_util =
          DoubleLanes::broadcast(cfg_.max_utilisation);
      const DoubleLanes m_util = (max_util - busy) / max_util;
      const DoubleLanes m_strobe =
          (tw - DoubleLanes::broadcast(c.two_sp)) / tw;
      const DoubleLanes m_v1 = util::min(m_util, m_strobe);
      if (c.v2) {
        const DoubleLanes s = half * tw + DoubleLanes::broadcast(c.sp) +
                              DoubleLanes::broadcast(c.t_ack) +
                              DoubleLanes::broadcast(c.t_data);
        const DoubleLanes cap = DoubleLanes::broadcast(kQueueStabilityCap);
        const DoubleLanes rho = DoubleLanes::broadcast(c.load[0]) * s;
        util::min(m_v1, (cap - rho) / cap).store(margins + i);
      } else {
        m_v1.store(margins + i);
      }
    }
  }

  // Scalar tail (also the bit-parity reference for the lanes above).
  for (; i < n; ++i) {
    const double tw = xs[i];
    if (energies) {
      const double cs = c.cs_num / tw;
      const double e_tx_pkt = 0.5 * tw * c.tx_k + c.tx_ack + c.tx_data;
      double worst = 0.0;
      for (int d = 0; d < depth; ++d) {
        // PowerBreakdown::total() order, zero stx/srx terms elided
        // (x + 0.0 == x bitwise for these non-negative finite sums).
        const double total =
            cs + c.f_out[d] * e_tx_pkt + c.rx_d[d] + c.ovr_d[d] + p_sleep;
        worst = std::max(worst, total);
      }
      energies[i] = worst * ctx_.energy_epoch;
    }
    if (latencies) {
      const double hop = 0.5 * tw + c.sp + c.t_ack + c.t_data;
      double total = 0.0;  // source_wait() is 0 for X-MAC
      for (int d = 0; d < depth; ++d) total += hop;
      if (c.v2) {
        double q = 0.0;
        for (int d = 0; d < depth; ++d) {
          const double rho = c.load[d] * hop;
          q += c.qk * rho * hop / (1.0 - rho);
        }
        if (c.burst) {
          const double rho1 = c.load[0] * hop;
          const double w = std::max(0.0, 1.0 - 1.0 / (c.bfac * rho1));
          q += w * c.half_t_on;
        }
        total += q;
      }
      latencies[i] = total;
    }
    if (margins) {
      const double per_pkt = 0.5 * tw + c.t_data + c.t_ack;
      const double busy = c.fsum * per_pkt;
      const double m_util =
          (cfg_.max_utilisation - busy) / cfg_.max_utilisation;
      const double m_strobe = (tw - c.two_sp) / tw;
      const double m_v1 = std::min(m_util, m_strobe);
      if (c.v2) {
        const double s = 0.5 * tw + c.sp + c.t_ack + c.t_data;
        const double rho = c.load[0] * s;
        const double m_stab =
            (kQueueStabilityCap - rho) / kQueueStabilityCap;
        margins[i] = std::min(m_v1, m_stab);
      } else {
        margins[i] = m_v1;
      }
    }
  }
}

double XmacModel::protocol_margin(const std::vector<double>& x) const {
  check_params(x);
  const double tw = x[0];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();

  // Medium occupancy at the bottleneck ring: each forwarded packet holds the
  // channel for the average preamble plus the data exchange; each received
  // packet likewise (it is the same exchange seen from the other side, but
  // the node is busy during both).
  const double per_pkt = 0.5 * tw + p.data_airtime(r) + p.ack_airtime(r);
  const double busy = (traffic.f_out(1) + traffic.f_in(1)) * per_pkt;
  const double m_util = (cfg_.max_utilisation - busy) / cfg_.max_utilisation;

  // The strobe train must contain at least two strobes per wake interval.
  const double m_strobe = (tw - 2.0 * strobe_period()) / tw;

  return std::min(m_util, m_strobe);
}

}  // namespace edb::mac
