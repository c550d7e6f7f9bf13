#include "mac/wisemac.h"

#include <algorithm>

namespace edb::mac {

WisemacModel::WisemacModel(ModelContext ctx, WisemacConfig cfg)
    : AnalyticMacModel(std::move(ctx)), cfg_(cfg),
      space_({{"Tw", cfg.tw_min, cfg.tw_max, "s"}}), queue_(ctx_) {
  EDB_ASSERT(cfg_.tw_min > 0 && cfg_.tw_min < cfg_.tw_max,
             "WiseMAC sampling-period bounds invalid");
  EDB_ASSERT(cfg_.clock_drift > 0, "clock drift must be positive");

  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  bc_.cs_num = r.p_rx * r.poll_duration();
  bc_.t_data = p.data_airtime(r);
  bc_.t_ack = p.ack_airtime(r);
  bc_.t_hdr = r.airtime(p.header_bytes * 8.0);
  bc_.tx_data = bc_.t_data * r.p_tx;
  bc_.tx_ack = bc_.t_ack * r.p_rx;
  bc_.rx_data = bc_.t_data * r.p_rx;
  bc_.rx_ack = bc_.t_ack * r.p_tx;
  bc_.fsum = traffic.f_out(1) + traffic.f_in(1);
  bc_.four_data = 4.0 * bc_.t_data;
  for (int d = 1; d <= ctx_.ring.depth; ++d) {
    bc_.rings.push_back(
        {traffic.f_out(d), traffic.f_in(d), traffic.f_bg(d),
         4.0 * cfg_.clock_drift * (1.0 / traffic.f_out(d))});
  }
}

double WisemacModel::preamble_duration(const std::vector<double>& x,
                                       int d) const {
  check_params(x);
  const net::RingTraffic traffic = ctx_.traffic();
  // Uplink exchange interval: one forwarded packet every 1/f_out seconds
  // refreshes the parent's schedule estimate.
  const double interval = 1.0 / traffic.f_out(d);
  return std::min(4.0 * cfg_.clock_drift * interval, x[0]);
}

PowerBreakdown WisemacModel::power_at_ring(const std::vector<double>& x,
                                           int d) const {
  check_params(x);
  const double tw = x[0];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  const double t_data = p.data_airtime(r);
  const double t_ack = p.ack_airtime(r);
  const double t_pre = preamble_duration(x, d);
  const double t_hdr = r.airtime(p.header_bytes * 8.0);

  PowerBreakdown out;
  out.cs = r.p_rx * r.poll_duration() / tw;
  out.tx =
      traffic.f_out(d) * (t_pre * r.p_tx + t_data * r.p_tx + t_ack * r.p_rx);
  out.rx = traffic.f_in(d) *
           (0.5 * t_pre * r.p_rx + t_data * r.p_rx + t_ack * r.p_tx);
  const double p_hit = std::min(1.0, t_pre / tw);
  out.ovr = traffic.f_bg(d) * p_hit * (0.5 * t_pre + t_hdr) * r.p_rx;
  out.sleep = r.p_sleep;
  return out;
}

double WisemacModel::hop_latency(const std::vector<double>& x, int d) const {
  check_params(x);
  return 0.5 * x[0] + 0.5 * preamble_duration(x, d) +
         ctx_.packet.data_airtime(ctx_.radio);
}

double WisemacModel::protocol_margin(const std::vector<double>& x) const {
  check_params(x);
  const double tw = x[0];
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  const double per_pkt = preamble_duration(x, 1) + p.data_airtime(ctx_.radio) +
                         p.ack_airtime(ctx_.radio);
  const double busy = (traffic.f_out(1) + traffic.f_in(1)) * per_pkt;
  const double m_util = (cfg_.max_utilisation - busy) / cfg_.max_utilisation;
  // At least a couple of sampling periods of headroom for the handshake.
  const double m_period = (tw - 4.0 * p.data_airtime(ctx_.radio)) / tw;
  return std::min(m_util, m_period);
}

void WisemacModel::evaluate_batch(const double* xs, std::size_t n,
                                  double* energies, double* latencies,
                                  double* margins) const {
  check_block(xs, n);
  const BatchCoeffs& c = bc_;
  const double p_rx = ctx_.radio.p_rx;
  const double p_tx = ctx_.radio.p_tx;
  const double p_sleep = ctx_.radio.p_sleep;
  for (std::size_t i = 0; i < n; ++i) {
    const double tw = xs[i];
    // Ring-1 preamble and hop: the margin's per-packet hold and the ring
    // service quantum of the kV2Queueing term.
    const double t_pre1 = std::min(c.rings[0].pre_cap, tw);
    const double hop1 = 0.5 * tw + 0.5 * t_pre1 + c.t_data;
    if (energies) {
      const double cs = c.cs_num / tw;
      double worst = 0.0;
      for (const Ring& g : c.rings) {
        const double t_pre = std::min(g.pre_cap, tw);
        const double tx = g.f_out * (t_pre * p_tx + c.tx_data + c.tx_ack);
        const double rx =
            g.f_in * (0.5 * t_pre * p_rx + c.rx_data + c.rx_ack);
        const double p_hit = std::min(1.0, t_pre / tw);
        const double ovr = g.f_bg * p_hit * (0.5 * t_pre + c.t_hdr) * p_rx;
        // PowerBreakdown::total() order, zero stx/srx terms elided
        // (x + 0.0 == x bitwise for these non-negative finite sums).
        worst = std::max(worst, cs + tx + rx + ovr + p_sleep);
      }
      energies[i] = worst * ctx_.energy_epoch;
    }
    if (latencies) {
      double total = 0.0;  // source_wait() is 0 for WiseMAC
      for (const Ring& g : c.rings) {
        total += 0.5 * tw + 0.5 * std::min(g.pre_cap, tw) + c.t_data;
      }
      if (queue_.v2) total += queue_.delay(hop1);
      latencies[i] = total;
    }
    if (margins) {
      const double busy = c.fsum * (t_pre1 + c.t_data + c.t_ack);
      const double m_util =
          (cfg_.max_utilisation - busy) / cfg_.max_utilisation;
      const double m_v1 = std::min(m_util, (tw - c.four_data) / tw);
      margins[i] = queue_.v2 ? std::min(m_v1, queue_.stability(hop1)) : m_v1;
    }
  }
}

}  // namespace edb::mac
