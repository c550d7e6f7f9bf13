#include "mac/scpmac.h"

#include <algorithm>

namespace edb::mac {

ScpmacModel::ScpmacModel(ModelContext ctx, ScpmacConfig cfg)
    : AnalyticMacModel(std::move(ctx)), cfg_(cfg),
      space_({{"Tp", cfg.tp_min, cfg.tp_max, "s"}}), queue_(ctx_) {
  EDB_ASSERT(cfg_.tp_min > 0 && cfg_.tp_min < cfg_.tp_max,
             "SCP-MAC poll-period bounds invalid");

  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  bc_.cs_num = r.p_rx * r.poll_duration();
  bc_.t_tone = tone_duration();
  bc_.t_data = p.data_airtime(r);
  bc_.t_ack = p.ack_airtime(r);
  const double t_hdr = r.airtime(p.header_bytes * 8.0);
  for (int d = 1; d <= ctx_.ring.depth; ++d) {
    bc_.rings.push_back(
        {traffic.f_out(d) * (bc_.t_tone * r.p_tx + bc_.t_data * r.p_tx +
                             bc_.t_ack * r.p_rx),
         traffic.f_in(d) * (bc_.t_tone * r.p_rx + bc_.t_data * r.p_rx +
                            bc_.t_ack * r.p_tx),
         traffic.f_bg(d) * (bc_.t_tone + t_hdr) * r.p_rx});
  }
  bc_.stx = p.sync_airtime(r) * r.p_tx / cfg_.sync_period;
  bc_.srx = (p.sync_airtime(r) + 2.0 * cfg_.sync_guard) * r.p_rx /
            cfg_.sync_period;
  const double per_pkt = bc_.t_tone + bc_.t_data + bc_.t_ack;
  const double busy = (traffic.f_out(1) + traffic.f_in(1)) * per_pkt;
  bc_.m_util = (cfg_.max_utilisation - busy) / cfg_.max_utilisation;
  bc_.two_per_pkt = 2.0 * per_pkt;
}

double ScpmacModel::tone_duration() const {
  return ctx_.radio.poll_duration() + cfg_.tone_guard;
}

PowerBreakdown ScpmacModel::power_at_ring(const std::vector<double>& x,
                                          int d) const {
  check_params(x);
  const double tp = x[0];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  const double t_data = p.data_airtime(r);
  const double t_ack = p.ack_airtime(r);
  const double t_tone = tone_duration();
  const double t_hdr = r.airtime(p.header_bytes * 8.0);

  PowerBreakdown out;
  out.cs = r.p_rx * r.poll_duration() / tp;
  out.tx = traffic.f_out(d) *
           (t_tone * r.p_tx + t_data * r.p_tx + t_ack * r.p_rx);
  out.rx = traffic.f_in(d) *
           (t_tone * r.p_rx + t_data * r.p_rx + t_ack * r.p_tx);
  out.ovr = traffic.f_bg(d) * (t_tone + t_hdr) * r.p_rx;

  out.stx = p.sync_airtime(r) * r.p_tx / cfg_.sync_period;
  out.srx = (p.sync_airtime(r) + 2.0 * cfg_.sync_guard) * r.p_rx /
            cfg_.sync_period;

  out.sleep = r.p_sleep;
  return out;
}

double ScpmacModel::hop_latency(const std::vector<double>& x, int) const {
  check_params(x);
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  return 0.5 * x[0] + tone_duration() + p.data_airtime(r) + p.ack_airtime(r);
}

double ScpmacModel::protocol_margin(const std::vector<double>& x) const {
  check_params(x);
  const double tp = x[0];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();

  // One packet exchange per poll period per link direction.
  const double per_pkt = tone_duration() + p.data_airtime(r) +
                         p.ack_airtime(r);
  const double busy = (traffic.f_out(1) + traffic.f_in(1)) * per_pkt;
  const double m_util = (cfg_.max_utilisation - busy) / cfg_.max_utilisation;

  // Poll period must exceed one full exchange.
  const double m_period = (tp - 2.0 * per_pkt) / tp;
  return std::min(m_util, m_period);
}

void ScpmacModel::evaluate_batch(const double* xs, std::size_t n,
                                 double* energies, double* latencies,
                                 double* margins) const {
  check_block(xs, n);
  const BatchCoeffs& c = bc_;
  const double p_sleep = ctx_.radio.p_sleep;
  for (std::size_t i = 0; i < n; ++i) {
    const double tp = xs[i];
    // hop_latency(x, d), the same for every ring and the ring service
    // quantum of the kV2Queueing term.
    const double hop = 0.5 * tp + c.t_tone + c.t_data + c.t_ack;
    if (energies) {
      const double cs = c.cs_num / tp;
      double worst = 0.0;
      for (const Ring& g : c.rings) {
        // PowerBreakdown::total() order.
        worst = std::max(worst,
                         cs + g.tx + g.rx + g.ovr + c.stx + c.srx + p_sleep);
      }
      energies[i] = worst * ctx_.energy_epoch;
    }
    if (latencies) {
      double total = 0.0;  // source_wait() is 0 for SCP-MAC
      for (std::size_t d = 0; d < c.rings.size(); ++d) total += hop;
      if (queue_.v2) total += queue_.delay(hop);
      latencies[i] = total;
    }
    if (margins) {
      const double m_v1 = std::min(c.m_util, (tp - c.two_per_pkt) / tp);
      margins[i] = queue_.v2 ? std::min(m_v1, queue_.stability(hop)) : m_v1;
    }
  }
}

}  // namespace edb::mac
