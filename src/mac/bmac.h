// B-MAC analytic model (Polastre et al., SenSys 2004) — extension baseline.
//
// Classic low-power listening: the receiver polls every `Tw`, the sender
// precedes each data frame with a *full-length* preamble of duration Tw so
// any poll inside it catches the transmission.  Unlike X-MAC the preamble
// is unaddressed and cannot be interrupted: the sender always pays the full
// Tw, and overhearers must stay awake until the data header to learn the
// packet is not for them.  Included (beyond the paper's three protocols) to
// quantify the short-preamble advantage in examples and ablations.
//
//   x[0] = Tw — wake/poll interval [s].
//
//   cs  = Prx * poll / Tw
//   tx  = f_out * (Tw*Ptx + t_data*Ptx)
//   rx  = f_in  * (Tw/2*Prx + t_data*Prx)       wakes mid-preamble
//   ovr = f_bg * (Tw/2 + t_data) * Prx   (every poll hits the preamble)
//
// Latency per hop: full preamble + data (the receiver is only guaranteed
// awake at the end of the preamble).
#pragma once

#include "mac/model.h"

namespace edb::mac {

struct BmacConfig {
  double tw_min = 0.02;
  double tw_max = 2.5;
  double max_utilisation = 0.25;
};

class BmacModel final : public AnalyticMacModel {
 public:
  explicit BmacModel(ModelContext ctx, BmacConfig cfg = {});

  std::string_view name() const override { return "B-MAC"; }
  const ParamSpace& params() const override { return space_; }

  PowerBreakdown power_at_ring(const std::vector<double>& x,
                               int d) const override;
  double hop_latency(const std::vector<double>& x, int d) const override;

  // Scalar loop over a point block with the invariants hoisted;
  // bit-identical to the scalar entry points (mac/model.h batch contract).
  void evaluate_batch(const double* xs, std::size_t n, double* energies,
                      double* latencies, double* margins) const override;

 private:
  double protocol_margin(const std::vector<double>& x) const override;

  // Batch-kernel invariants, precomputed once at construction with the
  // scalar path's expressions.
  struct Ring {
    double f_out = 0, f_in = 0, f_bg = 0;
  };
  struct BatchCoeffs {
    double cs_num = 0, t_data = 0, tx_data = 0, rx_data = 0, fsum = 0;
    std::vector<Ring> rings;  // index d-1
  };

  BmacConfig cfg_;
  ParamSpace space_;
  BatchCoeffs bc_;
  UniformQueue queue_;
};

}  // namespace edb::mac
