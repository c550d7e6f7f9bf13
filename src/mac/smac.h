// S-MAC analytic model (Ye, Heidemann, Estrin, 2002) — extension protocol
// with a TWO-dimensional parameter space.
//
// Slotted contention-based MAC with synchronised sleep schedules: nodes
// wake together for an *active window* `w` every cycle `T`, exchange
// SYNC/RTS/CTS/DATA/ACK inside it, and sleep the rest.  With *adaptive
// listening* a packet can traverse several hops inside one active window,
// roughly one per `w_min` (the time one full exchange needs), so the
// effective hops-per-cycle scale with w / w_min.
//
// Tunable parameters (exercising the framework's N-dimensional paths):
//   x[0] = T — operational cycle [s]
//   x[1] = w — active window [s],  w_min <= w <= T/4 (duty <= 25%)
//
// Power terms at ring d:
//   cs  = (w/T)*Prx                       mandatory active window
//   tx  = f_out * [ (cw/2)*Prx + t_data*Ptx + t_ack*Prx ]
//   rx  = f_in  * t_ack*Ptx               incremental over the window
//   ovr = f_bg * t_hdr * Prx              RTS/CTS header, then NAV sleep
//   stx = t_sync*Ptx / (k_sync*T)         own SYNC every k_sync cycles
//   srx = C * t_sync*Prx / (k_sync*T)     neighbours' SYNCs
//
// Latency: hops-per-cycle h = w / w_min (adaptive listening), so
//   L = (D / h) * (T/2) + D * (cw/2 + t_data):
// the first factor is the sleep delay amortised over the hops one window
// carries, the second the per-hop exchange time.
//
// Feasibility: w >= w_min, w <= T/4, and f_out * T <= k_chain packets per
// active window — a genuinely coupled 2-D constraint set.
#pragma once

#include "mac/model.h"

namespace edb::mac {

struct SmacConfig {
  double t_cycle_min = 0.5;   // [s]
  double t_cycle_max = 10.0;  // [s]
  double w_max = 0.5;         // [s] upper box bound on the active window
  double t_cw = 8e-3;         // [s] contention window
  double k_sync = 10.0;       // cycles between own SYNC broadcasts
  double k_chain = 3.0;       // packets relayed per active window
};

class SmacModel final : public AnalyticMacModel {
 public:
  explicit SmacModel(ModelContext ctx, SmacConfig cfg = {});

  std::string_view name() const override { return "S-MAC"; }
  const ParamSpace& params() const override { return space_; }

  PowerBreakdown power_at_ring(const std::vector<double>& x,
                               int d) const override;
  double hop_latency(const std::vector<double>& x, int d) const override;
  double source_wait(const std::vector<double>& x) const override;

  // Scalar loop over a point block with the invariants hoisted;
  // bit-identical to the scalar entry points (mac/model.h batch contract).
  void evaluate_batch(const double* xs, std::size_t n, double* energies,
                      double* latencies, double* margins) const override;

  const SmacConfig& config() const { return cfg_; }

  // Duration of one complete exchange (the adaptive-listening hop quantum).
  double min_window() const;

 private:
  double protocol_margin(const std::vector<double>& x) const override;

  // Batch-kernel invariants, precomputed once at construction with the
  // scalar path's expressions.  The traffic terms are per-ring constants;
  // the window, SYNC and latency terms depend on (T, w).
  struct Ring {
    double tx = 0, rx = 0, ovr = 0;
  };
  struct BatchCoeffs {
    double w_min = 0, half_cw = 0, t_data = 0;
    double stx_num = 0, srx_num = 0, f_out1 = 0;
    std::vector<Ring> rings;  // index d-1
  };

  SmacConfig cfg_;
  ParamSpace space_;
  BatchCoeffs bc_;
  UniformQueue queue_;
};

}  // namespace edb::mac
