#include "mac/bmac.h"

#include <algorithm>

namespace edb::mac {

BmacModel::BmacModel(ModelContext ctx, BmacConfig cfg)
    : AnalyticMacModel(std::move(ctx)), cfg_(cfg),
      space_({{"Tw", cfg.tw_min, cfg.tw_max, "s"}}), queue_(ctx_) {
  EDB_ASSERT(cfg_.tw_min > 0 && cfg_.tw_min < cfg_.tw_max,
             "B-MAC wake-interval bounds invalid");

  const auto& r = ctx_.radio;
  const net::RingTraffic traffic = ctx_.traffic();
  bc_.cs_num = r.p_rx * r.poll_duration();
  bc_.t_data = ctx_.packet.data_airtime(r);
  bc_.tx_data = bc_.t_data * r.p_tx;
  bc_.rx_data = bc_.t_data * r.p_rx;
  bc_.fsum = traffic.f_out(1) + traffic.f_in(1);
  for (int d = 1; d <= ctx_.ring.depth; ++d) {
    bc_.rings.push_back({traffic.f_out(d), traffic.f_in(d), traffic.f_bg(d)});
  }
}

PowerBreakdown BmacModel::power_at_ring(const std::vector<double>& x,
                                        int d) const {
  check_params(x);
  const double tw = x[0];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  const double t_data = p.data_airtime(r);

  PowerBreakdown out;
  out.cs = r.p_rx * r.poll_duration() / tw;
  out.tx = traffic.f_out(d) * (tw * r.p_tx + t_data * r.p_tx);
  out.rx = traffic.f_in(d) * (0.5 * tw * r.p_rx + t_data * r.p_rx);

  // A full-length preamble spans every neighbour's poll interval, so each
  // background packet is overheard with certainty (unlike X-MAC's average
  // half-length strobe train) for the remaining preamble plus the data.
  out.ovr = traffic.f_bg(d) * (0.5 * tw + t_data) * r.p_rx;

  out.sleep = r.p_sleep;
  return out;
}

double BmacModel::hop_latency(const std::vector<double>& x, int) const {
  check_params(x);
  return x[0] + ctx_.packet.data_airtime(ctx_.radio);
}

double BmacModel::protocol_margin(const std::vector<double>& x) const {
  check_params(x);
  const double tw = x[0];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();

  const double per_pkt = tw + p.data_airtime(r);
  const double busy = (traffic.f_out(1) + traffic.f_in(1)) * per_pkt;
  return (cfg_.max_utilisation - busy) / cfg_.max_utilisation;
}

void BmacModel::evaluate_batch(const double* xs, std::size_t n,
                               double* energies, double* latencies,
                               double* margins) const {
  check_block(xs, n);
  const BatchCoeffs& c = bc_;
  const double p_rx = ctx_.radio.p_rx;
  const double p_tx = ctx_.radio.p_tx;
  const double p_sleep = ctx_.radio.p_sleep;
  for (std::size_t i = 0; i < n; ++i) {
    const double tw = xs[i];
    // hop_latency(x, d), the same for every ring and the ring service
    // quantum of the kV2Queueing term.
    const double hop = tw + c.t_data;
    if (energies) {
      const double cs = c.cs_num / tw;
      double worst = 0.0;
      for (const Ring& g : c.rings) {
        const double tx = g.f_out * (tw * p_tx + c.tx_data);
        const double rx = g.f_in * (0.5 * tw * p_rx + c.rx_data);
        const double ovr = g.f_bg * (0.5 * tw + c.t_data) * p_rx;
        // PowerBreakdown::total() order, zero stx/srx terms elided
        // (x + 0.0 == x bitwise for these non-negative finite sums).
        worst = std::max(worst, cs + tx + rx + ovr + p_sleep);
      }
      energies[i] = worst * ctx_.energy_epoch;
    }
    if (latencies) {
      double total = 0.0;  // source_wait() is 0 for B-MAC
      for (std::size_t d = 0; d < c.rings.size(); ++d) total += hop;
      if (queue_.v2) total += queue_.delay(hop);
      latencies[i] = total;
    }
    if (margins) {
      const double busy = c.fsum * hop;
      const double m_v1 =
          (cfg_.max_utilisation - busy) / cfg_.max_utilisation;
      margins[i] = queue_.v2 ? std::min(m_v1, queue_.stability(hop)) : m_v1;
    }
  }
}

}  // namespace edb::mac
