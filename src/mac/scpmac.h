// SCP-MAC analytic model (Ye, Silva, Heidemann, SenSys 2006) — extension.
//
// Scheduled channel polling: all nodes synchronise their channel polls, so
// a sender only needs a short wake-up tone spanning the (small) schedule
// uncertainty instead of a preamble spanning the whole poll interval.  The
// price is periodic schedule synchronisation.  Included as the protocol the
// related-work section singles out for energy optimisation (Ye et al.).
//
//   x[0] = Tp — common poll period [s].
//
//   cs  = Prx * poll / Tp
//   tx  = f_out * (t_tone*Ptx + t_data*Ptx + t_ack*Prx)
//   rx  = f_in  * (t_tone*Prx + t_data*Prx + t_ack*Ptx)
//   ovr = f_bg * (t_tone + t_hdr)*Prx  — overhearers catch the tone and the
//         data header before sleeping
//   stx/srx: sync beacon every sync_period
//
// Latency per hop: Tp/2 (wait for the common poll) + tone + data + ACK.
#pragma once

#include "mac/model.h"

namespace edb::mac {

struct ScpmacConfig {
  double tp_min = 0.05;
  double tp_max = 5.0;
  double tone_guard = 2e-3;    // [s] schedule uncertainty covered by the tone
  double sync_period = 100.0;  // [s]
  double sync_guard = 2e-3;    // [s]
  double max_utilisation = 0.25;
};

class ScpmacModel final : public AnalyticMacModel {
 public:
  explicit ScpmacModel(ModelContext ctx, ScpmacConfig cfg = {});

  std::string_view name() const override { return "SCP-MAC"; }
  const ParamSpace& params() const override { return space_; }

  PowerBreakdown power_at_ring(const std::vector<double>& x,
                               int d) const override;
  double hop_latency(const std::vector<double>& x, int d) const override;

  // Scalar loop over a point block with the invariants hoisted;
  // bit-identical to the scalar entry points (mac/model.h batch contract).
  void evaluate_batch(const double* xs, std::size_t n, double* energies,
                      double* latencies, double* margins) const override;

  // Wake-up tone duration [s].
  double tone_duration() const;

 private:
  double protocol_margin(const std::vector<double>& x) const override;

  // Batch-kernel invariants, precomputed once at construction with the
  // scalar path's expressions.  Only the polling term and the poll wait
  // depend on Tp; every other power term is a per-ring constant.
  struct Ring {
    double tx = 0, rx = 0, ovr = 0;
  };
  struct BatchCoeffs {
    double cs_num = 0, t_tone = 0, t_data = 0, t_ack = 0;
    double stx = 0, srx = 0, m_util = 0, two_per_pkt = 0;
    std::vector<Ring> rings;  // index d-1
  };

  ScpmacConfig cfg_;
  ParamSpace space_;
  BatchCoeffs bc_;
  UniformQueue queue_;
};

}  // namespace edb::mac
