// WiseMAC analytic model (El-Hoiydi & Decotignie, 2004) — extension.
//
// Preamble sampling in which the sender *learns each neighbour's sampling
// schedule* (piggybacked on ACKs) and starts its preamble just early enough
// to cover the clock drift accumulated since the last exchange:
//
//   t_pre = min(4 * theta / f_link, Tw),
//
// where theta is the relative clock drift and f_link the packet rate on the
// link (drift grows linearly in the time between exchanges, 1/f_link).  At
// low rates the preamble saturates at the full sampling period (B-MAC
// behaviour); at higher rates it shrinks toward nothing — WiseMAC's
// signature "preamble minimisation".
//
//   x[0] = Tw — sampling period [s].
//
//   cs  = Prx * poll / Tw
//   tx  = f_out * (t_pre*Ptx + t_data*Ptx + t_ack*Prx)
//   rx  = f_in  * (t_pre/2*Prx + t_data*Prx + t_ack*Ptx)
//   ovr = f_bg * min(1, t_pre/Tw) * (t_pre/2 + t_hdr) * Prx
//         (short preambles rarely cover a third party's sampling point)
//   stx = srx = 0 (schedule exchange rides on ACKs)
//
// Latency per hop: Tw/2 (wait for the receiver's sample) + t_pre/2 + data.
#pragma once

#include "mac/model.h"

namespace edb::mac {

struct WisemacConfig {
  double tw_min = 0.1;
  double tw_max = 2.5;
  double clock_drift = 30e-6;  // theta: relative frequency tolerance
  double max_utilisation = 0.25;
};

class WisemacModel final : public AnalyticMacModel {
 public:
  explicit WisemacModel(ModelContext ctx, WisemacConfig cfg = {});

  std::string_view name() const override { return "WiseMAC"; }
  const ParamSpace& params() const override { return space_; }

  PowerBreakdown power_at_ring(const std::vector<double>& x,
                               int d) const override;
  double hop_latency(const std::vector<double>& x, int d) const override;

  // Scalar loop over a point block with the invariants hoisted;
  // bit-identical to the scalar entry points (mac/model.h batch contract).
  void evaluate_batch(const double* xs, std::size_t n, double* energies,
                      double* latencies, double* margins) const override;

  // Drift-sized preamble on a ring-d node's uplink under parameters x [s].
  double preamble_duration(const std::vector<double>& x, int d) const;

 private:
  double protocol_margin(const std::vector<double>& x) const override;

  // Batch-kernel invariants, precomputed once at construction with the
  // scalar path's expressions.  pre_cap is the drift bound on the
  // preamble, which preamble_duration caps at Tw.
  struct Ring {
    double f_out = 0, f_in = 0, f_bg = 0, pre_cap = 0;
  };
  struct BatchCoeffs {
    double cs_num = 0, t_data = 0, t_ack = 0, t_hdr = 0;
    double tx_data = 0, tx_ack = 0, rx_data = 0, rx_ack = 0;
    double fsum = 0, four_data = 0;
    std::vector<Ring> rings;  // index d-1
  };

  WisemacConfig cfg_;
  ParamSpace space_;
  BatchCoeffs bc_;
  UniformQueue queue_;
};

}  // namespace edb::mac
