#include "mac/dmac.h"

#include <algorithm>

#include "util/simd.h"

namespace edb::mac {

DmacModel::DmacModel(ModelContext ctx, DmacConfig cfg)
    : AnalyticMacModel(std::move(ctx)), cfg_(cfg),
      space_({{"T", cfg.t_cycle_min, cfg.t_cycle_max, "s"}}),
      queue_(ctx_) {
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
  for (int d = 1; d <= depth; ++d) {
    bc_.tx_d[d - 1] = traffic.f_out(d) * e_tx_pkt;
    bc_.rx_d[d - 1] = traffic.f_in(d) * p.ack_airtime(r) * r.p_tx;
  }
  bc_.f_out1 = traffic.f_out(1);
  bc_.needed = (ctx_.ring.depth + 1) * bc_.mu;
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
  const double epoch = ctx_.energy_epoch;
  const double k_chain = cfg_.k_chain;

  // One body for the lane blocks and the remainder (util/simd.h
  // for_lanes): the scalar expressions, lane-wise, in their association
  // order.
  util::for_lanes(n, [&](auto lanes, std::size_t i) {
    using L = decltype(lanes);
    const L t_cycle = L::load(xs + i);
    if (energies) {
      const L cs = L::broadcast(c.cs_num) / t_cycle;
      L worst = L::broadcast(0.0);
      for (int d = 0; d < depth; ++d) {
        // total() order with the zero ovr term elided (bit-preserving).
        const L total = cs + L::broadcast(c.tx_d[d]) +
                        L::broadcast(c.rx_d[d]) + L::broadcast(c.stx) +
                        L::broadcast(c.srx) + L::broadcast(p_sleep);
        worst = util::max(worst, total);
      }
      (worst * L::broadcast(epoch)).store(energies + i);
    }
    if (latencies) {
      L total = L::broadcast(0.5) * t_cycle;  // source_wait: half a cycle
      for (int d = 0; d < depth; ++d) total = total + L::broadcast(c.mu);
      // Ring service quantum: the cycle T (one contended slot per cycle).
      if (queue_.v2) total = total + queue_.delay(t_cycle);
      total.store(latencies + i);
    }
    if (margins) {
      const L load = L::broadcast(c.f_out1) * t_cycle;
      const L m_capacity =
          (L::broadcast(k_chain) - load) / L::broadcast(k_chain);
      const L m_schedule = (t_cycle - L::broadcast(c.needed)) / t_cycle;
      const L m_v1 = util::min(m_capacity, m_schedule);
      (queue_.v2 ? util::min(m_v1, queue_.stability(t_cycle)) : m_v1)
          .store(margins + i);
    }
  });
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
