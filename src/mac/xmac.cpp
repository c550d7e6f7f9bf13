#include "mac/xmac.h"

#include <algorithm>

#include "util/simd.h"

namespace edb::mac {

XmacModel::XmacModel(ModelContext ctx, XmacConfig cfg)
    : AnalyticMacModel(std::move(ctx)), cfg_(cfg),
      space_({{"Tw", cfg.tw_min, cfg.tw_max, "s"}}), queue_(ctx_) {
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
  const double epoch = ctx_.energy_epoch;
  const double max_util = cfg_.max_utilisation;

  // One body for the lane blocks and the remainder (util/simd.h
  // for_lanes): the scalar entry points' expressions, lane-wise, in their
  // association order, so every stored double is bit-identical to them.
  util::for_lanes(n, [&](auto lanes, std::size_t i) {
    using L = decltype(lanes);
    const L tw = L::load(xs + i);
    const L half = L::broadcast(0.5);
    // One hop exchange: hop_latency() and the ring service quantum.
    const L hop = half * tw + L::broadcast(c.sp) + L::broadcast(c.t_ack) +
                  L::broadcast(c.t_data);
    if (energies) {
      const L cs = L::broadcast(c.cs_num) / tw;
      const L e_tx_pkt = half * tw * L::broadcast(c.tx_k) +
                         L::broadcast(c.tx_ack) + L::broadcast(c.tx_data);
      L worst = L::broadcast(0.0);
      for (int d = 0; d < depth; ++d) {
        // PowerBreakdown::total() order, zero stx/srx terms elided
        // (x + 0.0 == x bitwise for these non-negative finite sums).
        const L total = cs + L::broadcast(c.f_out[d]) * e_tx_pkt +
                        L::broadcast(c.rx_d[d]) + L::broadcast(c.ovr_d[d]) +
                        L::broadcast(p_sleep);
        worst = util::max(worst, total);
      }
      (worst * L::broadcast(epoch)).store(energies + i);
    }
    if (latencies) {
      L total = L::broadcast(0.0);  // source_wait() is 0 for X-MAC
      for (int d = 0; d < depth; ++d) total = total + hop;
      if (queue_.v2) total = total + queue_.delay(hop);
      total.store(latencies + i);
    }
    if (margins) {
      const L per_pkt =
          half * tw + L::broadcast(c.t_data) + L::broadcast(c.t_ack);
      const L busy = L::broadcast(c.fsum) * per_pkt;
      const L m_util =
          (L::broadcast(max_util) - busy) / L::broadcast(max_util);
      const L m_strobe = (tw - L::broadcast(c.two_sp)) / tw;
      const L m_v1 = util::min(m_util, m_strobe);
      (queue_.v2 ? util::min(m_v1, queue_.stability(hop)) : m_v1)
          .store(margins + i);
    }
  });
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
