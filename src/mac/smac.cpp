#include "mac/smac.h"

#include <algorithm>

namespace edb::mac {

SmacModel::SmacModel(ModelContext ctx, SmacConfig cfg)
    : AnalyticMacModel(std::move(ctx)), cfg_(cfg), queue_(ctx_) {
  EDB_ASSERT(cfg_.t_cycle_min > 0 && cfg_.t_cycle_min < cfg_.t_cycle_max,
             "S-MAC cycle bounds invalid");
  // The active-window box depends on the derived exchange duration; build
  // the parameter space now that min_window() is computable.
  EDB_ASSERT(min_window() < cfg_.w_max, "w_max below one exchange");
  // The coupled constraint w <= T/4 is enforced by feasibility_margin();
  // the box only needs a non-empty feasible region at the largest cycle.
  EDB_ASSERT(min_window() < cfg_.t_cycle_max / 4.0,
             "no feasible window under the 25% duty ceiling");
  space_ = ParamSpace({{"T", cfg_.t_cycle_min, cfg_.t_cycle_max, "s"},
                       {"w", min_window(), cfg_.w_max, "s"}});

  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  bc_.w_min = min_window();
  bc_.half_cw = 0.5 * cfg_.t_cw;
  bc_.t_data = p.data_airtime(r);
  bc_.stx_num = p.sync_airtime(r) * r.p_tx;
  bc_.srx_num = ctx_.ring.density * p.sync_airtime(r) * r.p_rx;
  bc_.f_out1 = traffic.f_out(1);
  for (int d = 1; d <= ctx_.ring.depth; ++d) {
    bc_.rings.push_back(
        {traffic.f_out(d) * (0.5 * cfg_.t_cw * r.p_rx +
                             p.data_airtime(r) * r.p_tx +
                             p.ack_airtime(r) * r.p_rx),
         traffic.f_in(d) * p.ack_airtime(r) * r.p_tx,
         traffic.f_bg(d) * r.airtime(p.header_bytes * 8) * r.p_rx});
  }
}

double SmacModel::min_window() const {
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  // SYNC section + contention + RTS/CTS-class header exchange + data + ack.
  return p.sync_airtime(r) + cfg_.t_cw + 2.0 * r.airtime(p.header_bytes * 8) +
         p.data_airtime(r) + p.ack_airtime(r) + 4.0 * r.t_turnaround;
}

PowerBreakdown SmacModel::power_at_ring(const std::vector<double>& x,
                                        int d) const {
  check_params(x);
  const double t_cycle = x[0];
  const double w = x[1];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();

  PowerBreakdown out;
  out.cs = (w / t_cycle) * r.p_rx;

  out.tx = traffic.f_out(d) *
           (0.5 * cfg_.t_cw * r.p_rx + p.data_airtime(r) * r.p_tx +
            p.ack_airtime(r) * r.p_rx);
  out.rx = traffic.f_in(d) * p.ack_airtime(r) * r.p_tx;
  out.ovr = traffic.f_bg(d) * r.airtime(p.header_bytes * 8) * r.p_rx;

  out.stx = p.sync_airtime(r) * r.p_tx / (cfg_.k_sync * t_cycle);
  out.srx = ctx_.ring.density * p.sync_airtime(r) * r.p_rx /
            (cfg_.k_sync * t_cycle);

  out.sleep = r.p_sleep;
  return out;
}

double SmacModel::hop_latency(const std::vector<double>& x, int) const {
  check_params(x);
  const double t_cycle = x[0];
  const double w = x[1];
  const auto& p = ctx_.packet;
  // Sleep delay amortised over the hops one active window carries, plus
  // the per-hop exchange itself.
  const double hops_per_cycle = w / min_window();
  return 0.5 * t_cycle / hops_per_cycle + 0.5 * cfg_.t_cw +
         p.data_airtime(ctx_.radio);
}

double SmacModel::source_wait(const std::vector<double>&) const {
  // Generation waits for the next active window on average half a cycle;
  // folded into the per-hop sleep delay like the other slotted models
  // amortise it (first hop pays it as part of hop_latency).
  return 0.0;
}

double SmacModel::protocol_margin(const std::vector<double>& x) const {
  check_params(x);
  const double t_cycle = x[0];
  const double w = x[1];
  const net::RingTraffic traffic = ctx_.traffic();

  const double m_window = (w - min_window()) / std::max(w, 1e-12);
  const double m_duty = (0.25 * t_cycle - w) / (0.25 * t_cycle);
  const double load = traffic.f_out(1) * t_cycle;
  const double m_capacity = (cfg_.k_chain - load) / cfg_.k_chain;
  return std::min({m_window, m_duty, m_capacity});
}

void SmacModel::evaluate_batch(const double* xs, std::size_t n,
                               double* energies, double* latencies,
                               double* margins) const {
  check_block(xs, n);
  const BatchCoeffs& c = bc_;
  const double p_rx = ctx_.radio.p_rx;
  const double p_sleep = ctx_.radio.p_sleep;
  for (std::size_t i = 0; i < n; ++i) {
    const double t_cycle = xs[2 * i];
    const double w = xs[2 * i + 1];
    // hop_latency(x, d), the same for every ring and the ring service
    // quantum of the kV2Queueing term.
    const double hop = 0.5 * t_cycle / (w / c.w_min) + c.half_cw + c.t_data;
    if (energies) {
      const double cs = (w / t_cycle) * p_rx;
      const double stx = c.stx_num / (cfg_.k_sync * t_cycle);
      const double srx = c.srx_num / (cfg_.k_sync * t_cycle);
      double worst = 0.0;
      for (const Ring& g : c.rings) {
        // PowerBreakdown::total() order.
        worst = std::max(worst, cs + g.tx + g.rx + g.ovr + stx + srx + p_sleep);
      }
      energies[i] = worst * ctx_.energy_epoch;
    }
    if (latencies) {
      double total = 0.0;  // source_wait() is 0 for S-MAC
      for (std::size_t d = 0; d < c.rings.size(); ++d) total += hop;
      if (queue_.v2) total += queue_.delay(hop);
      latencies[i] = total;
    }
    if (margins) {
      const double m_window = (w - c.w_min) / std::max(w, 1e-12);
      const double m_duty = (0.25 * t_cycle - w) / (0.25 * t_cycle);
      const double load = c.f_out1 * t_cycle;
      const double m_capacity = (cfg_.k_chain - load) / cfg_.k_chain;
      const double m_v1 = std::min({m_window, m_duty, m_capacity});
      margins[i] = queue_.v2 ? std::min(m_v1, queue_.stability(hop)) : m_v1;
    }
  }
}

}  // namespace edb::mac
