// X-MAC analytic model (Buettner et al., SenSys 2006).
//
// Asynchronous preamble-sampling (low-power listening) with a *strobed*
// preamble: the sender transmits a train of short, addressed strobes and
// pauses between them listening for an early ACK; the receiver polls the
// channel every `Tw` seconds, answers the first strobe it hears, and the
// data exchange follows immediately.  Third parties that overhear a strobe
// see a foreign address and go straight back to sleep — the short-preamble
// advantage over B-MAC.
//
// Tunable parameter (the paper's X):
//   x[0] = Tw — wake/poll interval [s].
//
// Power terms at ring d (rates from net::RingTraffic):
//   cs  = Prx * poll / Tw                    periodic channel polling
//   tx  = f_out * [ (Tw/2)(rho*Ptx + (1-rho)*Prx) + t_ack*Prx + t_data*Ptx ]
//         where rho = t_strobe / (t_strobe + t_gap): the sender strobes for
//         Tw/2 on average before the receiver's poll lands in the train
//   rx  = f_in  * [ (t_strobe + t_gap)*Prx + t_ack*Ptx + t_data*Prx ]
//   ovr = f_bg * p_hit * (t_strobe + t_gap) * Prx, p_hit = 1/2: an
//         overhearer's poll falls inside the (average Tw/2-long) preamble
//         of a background packet with probability (Tw/2)/Tw
//   stx = srx = 0 (fully asynchronous)
//
// Latency per hop: Tw/2 (wait for the receiver's poll) + one strobe+gap
// handshake + ACK + data.
#pragma once

#include "mac/model.h"

namespace edb::mac {

struct XmacConfig {
  double tw_min = 0.15;  // [s] lower bound on the wake interval
  double tw_max = 2.5;   // [s] upper bound on the wake interval
  // Maximum tolerated medium-busy fraction at the bottleneck before the
  // unsaturated-network assumption (and hence the model) breaks down.
  double max_utilisation = 0.25;
};

class XmacModel final : public AnalyticMacModel {
 public:
  explicit XmacModel(ModelContext ctx, XmacConfig cfg = {});

  // The registry's default configuration over `ctx`: XmacConfig{} with the
  // wake-interval box widened where the deployment demands it (a slow
  // radio stretches the strobe period and with it the feasible floor).
  // Identical to XmacConfig{} for the paper's calibration.
  static XmacConfig default_config(const ModelContext& ctx);

  std::string_view name() const override { return "X-MAC"; }
  const ParamSpace& params() const override { return space_; }

  PowerBreakdown power_at_ring(const std::vector<double>& x,
                               int d) const override;
  double hop_latency(const std::vector<double>& x, int d) const override;

  // One lane-generic body over a point block (util/simd.h for_lanes):
  // invariants (airtimes, strobe geometry, per-ring traffic rates)
  // precomputed once, per-point arithmetic kept in the scalar order —
  // bit-identical to the scalar entry points (mac/model.h batch
  // contract).  The kV2Queueing term is queue_.delay(hop): X-MAC's ring
  // service quantum is the hop exchange itself.
  void evaluate_batch(const double* xs, std::size_t n, double* energies,
                      double* latencies, double* margins) const override;

  const XmacConfig& config() const { return cfg_; }

  // Strobe period: one strobe plus the early-ACK listening gap [s].
  double strobe_period() const;

 private:
  double protocol_margin(const std::vector<double>& x) const override;

  // Invariants of the batch kernel, precomputed once at construction
  // (ctx and cfg are immutable afterwards).  Each field is evaluated with
  // the scalar path's exact expression so the kernel's per-point
  // arithmetic reproduces the scalar bits.
  struct BatchCoeffs {
    double t_data = 0, t_ack = 0, sp = 0;
    double cs_num = 0, tx_k = 0, tx_ack = 0, tx_data = 0;
    double fsum = 0, two_sp = 0;
    std::vector<double> f_out, rx_d, ovr_d;  // per ring, index d-1
  };

  XmacConfig cfg_;
  ParamSpace space_;
  BatchCoeffs bc_;
  UniformQueue queue_;
};

}  // namespace edb::mac
