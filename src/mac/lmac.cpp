#include "mac/lmac.h"

#include <algorithm>
#include <cmath>

#include "util/simd.h"

namespace edb::mac {

LmacModel::LmacModel(ModelContext ctx, LmacConfig cfg)
    : AnalyticMacModel(std::move(ctx)), cfg_(cfg),
      space_({{"t_slot", cfg.t_slot_min, cfg.t_slot_max, "s"}}),
      queue_(ctx_) {
  EDB_ASSERT(cfg_.t_slot_min > 0 && cfg_.t_slot_min < cfg_.t_slot_max,
             "LMAC slot bounds invalid");
  // Slot reuse needs the 2-hop neighbourhood to fit in one frame.
  EDB_ASSERT(cfg_.n_slots >= static_cast<int>(2 * ctx_.ring.density) + 2,
             "LMAC frame too short for collision-free slot assignment");
  EDB_ASSERT(cfg_.t_slot_min >= min_slot_width(),
             "minimum slot width cannot fit CM + data");

  // Batch-kernel invariants (mac/lmac.h): scalar-path expressions over
  // the now-frozen ctx/cfg.
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  const int depth = ctx_.ring.depth;
  const double t_cm = p.ctrl_airtime(r);
  bc_.stx_num = r.t_startup * r.p_rx + t_cm * r.p_tx;
  bc_.srx_num = (cfg_.n_slots - 1) * (r.t_startup + t_cm) * r.p_rx;
  bc_.tx_d.resize(depth);
  bc_.rx_d.resize(depth);
  bc_.ring_n.resize(depth);
  for (int d = 1; d <= depth; ++d) {
    bc_.tx_d[d - 1] = traffic.f_out(d) * p.data_airtime(r) * r.p_tx;
    bc_.rx_d[d - 1] = traffic.f_in(d) * p.data_airtime(r) * r.p_rx;
    bc_.ring_n[d - 1] = ctx_.ring.nodes_in_ring(d);
  }
  bc_.hop_k = 0.5 * cfg_.n_slots + 1.0;
  bc_.min_slot = min_slot_width();
  bc_.f_out1 = traffic.f_out(1);
}

namespace {

double min_slot_width_of(const ModelContext& ctx, const LmacConfig& cfg) {
  const auto& r = ctx.radio;
  const auto& p = ctx.packet;
  return r.t_startup + p.ctrl_airtime(r) + p.data_airtime(r) + cfg.guard;
}

}  // namespace

LmacConfig LmacModel::default_config(const ModelContext& ctx) {
  LmacConfig cfg;
  // Collision-free slot reuse needs the 2-hop neighbourhood in one frame.
  cfg.n_slots = std::max(
      cfg.n_slots, 2 * static_cast<int>(std::ceil(ctx.ring.density)) + 2);
  const double min_slot = min_slot_width_of(ctx, cfg);
  if (cfg.t_slot_min < min_slot) {
    cfg.t_slot_min = min_slot;
    cfg.t_slot_max = std::max(cfg.t_slot_max, 50.0 * cfg.t_slot_min);
  }
  return cfg;
}

double LmacModel::min_slot_width() const {
  return min_slot_width_of(ctx_, cfg_);
}

PowerBreakdown LmacModel::power_at_ring(const std::vector<double>& x,
                                        int d) const {
  check_params(x);
  const double t_slot = x[0];
  const auto& r = ctx_.radio;
  const auto& p = ctx_.packet;
  const net::RingTraffic traffic = ctx_.traffic();
  const double frame = cfg_.n_slots * t_slot;
  const double t_cm = p.ctrl_airtime(r);

  PowerBreakdown out;
  out.stx = (r.t_startup * r.p_rx + t_cm * r.p_tx) / frame;
  out.srx =
      (cfg_.n_slots - 1) * (r.t_startup + t_cm) * r.p_rx / frame;

  out.tx = traffic.f_out(d) * p.data_airtime(r) * r.p_tx;
  out.rx = traffic.f_in(d) * p.data_airtime(r) * r.p_rx;

  out.sleep = r.p_sleep;
  return out;
}

double LmacModel::hop_latency(const std::vector<double>& x, int) const {
  check_params(x);
  const double t_slot = x[0];
  // Average wait for the node's own slot (uniform slot position in the
  // frame) plus the owned slot itself.
  return (0.5 * cfg_.n_slots + 1.0) * t_slot;
}

double LmacModel::service_time(const std::vector<double>& x) const {
  check_params(x);
  return frame_length(x);
}

double LmacModel::ring_service_quantum(const std::vector<double>& x,
                                       int d) const {
  check_params(x);
  return frame_length(x) / ctx_.ring.nodes_in_ring(d);
}

void LmacModel::evaluate_batch(const double* xs, std::size_t n,
                               double* energies, double* latencies,
                               double* margins) const {
  check_block(xs, n);
  const BatchCoeffs& c = bc_;
  const int depth = ctx_.ring.depth;
  const double p_sleep = ctx_.radio.p_sleep;
  const double epoch = ctx_.energy_epoch;
  const double n_slots = cfg_.n_slots;

  // One body for the lane blocks and the remainder (util/simd.h
  // for_lanes): the scalar expressions, lane-wise, in their association
  // order.
  util::for_lanes(n, [&](auto lanes, std::size_t i) {
    using L = decltype(lanes);
    const L t_slot = L::load(xs + i);
    const L frame = L::broadcast(n_slots) * t_slot;
    // ring_service_quantum(x, k + 1): the TDMA quantum frame / ring size.
    const auto quantum = [&](std::size_t k) {
      return frame / L::broadcast(c.ring_n[k]);
    };
    if (energies) {
      const L stx = L::broadcast(c.stx_num) / frame;
      const L srx = L::broadcast(c.srx_num) / frame;
      L worst = L::broadcast(0.0);
      for (int d = 0; d < depth; ++d) {
        // total() order with the zero cs/ovr terms elided (bit-preserving).
        const L total = L::broadcast(c.tx_d[d]) + L::broadcast(c.rx_d[d]) +
                        stx + srx + L::broadcast(p_sleep);
        worst = util::max(worst, total);
      }
      (worst * L::broadcast(epoch)).store(energies + i);
    }
    if (latencies) {
      const L hop = L::broadcast(c.hop_k) * t_slot;
      L total = L::broadcast(0.0);  // source_wait() is 0 for LMAC
      for (int d = 0; d < depth; ++d) total = total + hop;
      if (queue_.v2) total = total + queue_.delay_rings<L>(quantum);
      total.store(latencies + i);
    }
    if (margins) {
      const L m_fit = (t_slot - L::broadcast(c.min_slot)) / t_slot;
      const L m_capacity = L::broadcast(1.0) - L::broadcast(c.f_out1) * frame;
      const L m_v1 = util::min(m_fit, m_capacity);
      (queue_.v2 ? util::min(m_v1, queue_.stability(quantum(0))) : m_v1)
          .store(margins + i);
    }
  });
}

double LmacModel::protocol_margin(const std::vector<double>& x) const {
  check_params(x);
  const double t_slot = x[0];
  const net::RingTraffic traffic = ctx_.traffic();

  const double m_fit = (t_slot - min_slot_width()) / t_slot;

  // One owned data slot per frame at the bottleneck.
  const double load = traffic.f_out(1) * frame_length(x);
  const double m_capacity = 1.0 - load;

  return std::min(m_fit, m_capacity);
}

}  // namespace edb::mac
