#include "mac/lmac.h"

#include <algorithm>
#include <cmath>

#include "util/simd.h"

namespace edb::mac {

LmacModel::LmacModel(ModelContext ctx, LmacConfig cfg)
    : AnalyticMacModel(std::move(ctx)), cfg_(cfg),
      space_({{"t_slot", cfg.t_slot_min, cfg.t_slot_max, "s"}}) {
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
  bc_.load.resize(depth);
  bc_.ring_n.resize(depth);
  for (int d = 1; d <= depth; ++d) {
    bc_.tx_d[d - 1] = traffic.f_out(d) * p.data_airtime(r) * r.p_tx;
    bc_.rx_d[d - 1] = traffic.f_in(d) * p.data_airtime(r) * r.p_rx;
    bc_.load[d - 1] = traffic.ring_load(d);
    bc_.ring_n[d - 1] = ctx_.ring.nodes_in_ring(d);
  }
  bc_.hop_k = 0.5 * cfg_.n_slots + 1.0;
  bc_.min_slot = min_slot_width();
  bc_.f_out1 = traffic.f_out(1);
  bc_.v2 = ctx_.model_version == ModelVersion::kV2Queueing;
  bc_.qk = 0.5 * ctx_.traffic_model().squared_cv();
  bc_.burst = ctx_.arrivals == net::ArrivalProcess::kBursty;
  const double b = ctx_.burst_factor;
  bc_.bfac = b;
  bc_.half_t_on = 0.5 * ((b - 1.0) / b * (1.0 / ctx_.fs));
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

  // SIMD main loop: the scalar expressions below, lane-wise, in the same
  // association order (util/simd.h lane contract).
  using util::DoubleLanes;
  constexpr std::size_t W = DoubleLanes::kWidth;
  const DoubleLanes n_slots_b = DoubleLanes::broadcast(cfg_.n_slots);
  const DoubleLanes sleep_b = DoubleLanes::broadcast(p_sleep);
  const DoubleLanes zero = DoubleLanes::broadcast(0.0);

  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const DoubleLanes t_slot = DoubleLanes::load(xs + i);
    if (energies) {
      const DoubleLanes frame = n_slots_b * t_slot;
      const DoubleLanes stx = DoubleLanes::broadcast(c.stx_num) / frame;
      const DoubleLanes srx = DoubleLanes::broadcast(c.srx_num) / frame;
      DoubleLanes worst = zero;
      for (int d = 0; d < depth; ++d) {
        const DoubleLanes total = DoubleLanes::broadcast(c.tx_d[d]) +
                                  DoubleLanes::broadcast(c.rx_d[d]) + stx +
                                  srx + sleep_b;
        worst = util::max(worst, total);
      }
      (worst * DoubleLanes::broadcast(ctx_.energy_epoch)).store(energies + i);
    }
    if (latencies) {
      const DoubleLanes hop = DoubleLanes::broadcast(c.hop_k) * t_slot;
      DoubleLanes total = zero;  // source_wait() is 0 for LMAC
      for (int d = 0; d < depth; ++d) total = total + hop;
      if (c.v2) {
        // Ring-as-server wait with the TDMA quantum frame / ring size
        // (mac/model.h queueing_delay association order).
        const DoubleLanes frame = n_slots_b * t_slot;
        const DoubleLanes qk_b = DoubleLanes::broadcast(c.qk);
        const DoubleLanes one = DoubleLanes::broadcast(1.0);
        DoubleLanes q = zero;
        for (int d = 0; d < depth; ++d) {
          const DoubleLanes s = frame / DoubleLanes::broadcast(c.ring_n[d]);
          const DoubleLanes rho = DoubleLanes::broadcast(c.load[d]) * s;
          q = q + qk_b * rho * s / (one - rho);
        }
        if (c.burst) {
          const DoubleLanes s1 = frame / DoubleLanes::broadcast(c.ring_n[0]);
          const DoubleLanes rho1 = DoubleLanes::broadcast(c.load[0]) * s1;
          const DoubleLanes w = util::max(
              zero, one - one / (DoubleLanes::broadcast(c.bfac) * rho1));
          q = q + w * DoubleLanes::broadcast(c.half_t_on);
        }
        total = total + q;
      }
      total.store(latencies + i);
    }
    if (margins) {
      const DoubleLanes m_fit =
          (t_slot - DoubleLanes::broadcast(c.min_slot)) / t_slot;
      const DoubleLanes load =
          DoubleLanes::broadcast(c.f_out1) * (n_slots_b * t_slot);
      const DoubleLanes m_capacity = DoubleLanes::broadcast(1.0) - load;
      const DoubleLanes m_v1 = util::min(m_fit, m_capacity);
      if (c.v2) {
        const DoubleLanes cap = DoubleLanes::broadcast(kQueueStabilityCap);
        const DoubleLanes s1 =
            (n_slots_b * t_slot) / DoubleLanes::broadcast(c.ring_n[0]);
        const DoubleLanes rho = DoubleLanes::broadcast(c.load[0]) * s1;
        util::min(m_v1, (cap - rho) / cap).store(margins + i);
      } else {
        m_v1.store(margins + i);
      }
    }
  }

  // Scalar tail (also the bit-parity reference for the lanes above).
  for (; i < n; ++i) {
    const double t_slot = xs[i];
    if (energies) {
      const double frame = cfg_.n_slots * t_slot;
      const double stx = c.stx_num / frame;
      const double srx = c.srx_num / frame;
      double worst = 0.0;
      for (int d = 0; d < depth; ++d) {
        // total() order with the zero cs/ovr terms elided (bit-preserving).
        const double total = c.tx_d[d] + c.rx_d[d] + stx + srx + p_sleep;
        worst = std::max(worst, total);
      }
      energies[i] = worst * ctx_.energy_epoch;
    }
    if (latencies) {
      const double hop = c.hop_k * t_slot;
      double total = 0.0;  // source_wait() is 0 for LMAC
      for (int d = 0; d < depth; ++d) total += hop;
      if (c.v2) {
        const double frame = cfg_.n_slots * t_slot;
        double q = 0.0;
        for (int d = 0; d < depth; ++d) {
          const double s = frame / c.ring_n[d];
          const double rho = c.load[d] * s;
          q += c.qk * rho * s / (1.0 - rho);
        }
        if (c.burst) {
          const double s1 = frame / c.ring_n[0];
          const double rho1 = c.load[0] * s1;
          const double w = std::max(0.0, 1.0 - 1.0 / (c.bfac * rho1));
          q += w * c.half_t_on;
        }
        total += q;
      }
      latencies[i] = total;
    }
    if (margins) {
      const double m_fit = (t_slot - c.min_slot) / t_slot;
      const double load = c.f_out1 * (cfg_.n_slots * t_slot);
      const double m_capacity = 1.0 - load;
      const double m_v1 = std::min(m_fit, m_capacity);
      if (c.v2) {
        const double s1 = (cfg_.n_slots * t_slot) / c.ring_n[0];
        const double rho = c.load[0] * s1;
        const double m_stab =
            (kQueueStabilityCap - rho) / kQueueStabilityCap;
        margins[i] = std::min(m_v1, m_stab);
      } else {
        margins[i] = m_v1;
      }
    }
  }
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
