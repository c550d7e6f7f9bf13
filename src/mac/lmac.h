// LMAC analytic model (van Hoesel & Havinga, INSS 2004).
//
// Frame-based TDMA: time is divided into frames of `n_slots` slots and every
// node owns one slot per frame.  Each slot opens with a short control
// message (CM) from the slot owner announcing, among other things, the
// destination of the data that follows.  All neighbours briefly wake for
// every CM; only the addressed node stays for the data.  Transmissions are
// collision-free, so there are no ACKs and no carrier sensing.
//
// Tunable parameter (the paper's X — the frame length, via the slot width):
//   x[0] = t_slot — slot duration [s]; frame length = n_slots * t_slot.
//
// Power terms at ring d:
//   stx = (t_startup*Prx + t_cm*Ptx) / (n*t_slot)     own CM every frame
//   srx = (n-1) * (t_startup + t_cm) * Prx / (n*t_slot)  listen to all CMs
//   tx  = f_out * t_data * Ptx                         collision-free data
//   rx  = f_in  * t_data * Prx
//   cs = ovr = 0 (TDMA: no sensing; non-addressed data slept through)
//
// The per-slot radio startup is charged because the node returns to sleep
// between control sections: n wake-ups per frame dominate LMAC's cost and
// make it the most expensive of the three protocols at tight delay bounds
// (paper Fig. 1c/2c, E axis up to 0.25 J).
//
// Latency per hop: slots are assigned without depth ordering, so after
// receiving a packet a node waits on average half a frame for its own slot,
// then transmits in it: (n/2)*t_slot + t_slot.
//
// Feasibility: the slot must fit startup + CM + data + guard, and a node
// gets one data slot per frame: f_out(1) * n * t_slot <= 1.
#pragma once

#include "mac/model.h"

namespace edb::mac {

struct LmacConfig {
  int n_slots = 16;          // slots per frame (>= 2*density + 2 for reuse)
  double t_slot_min = 3e-3;  // [s]
  double t_slot_max = 0.6;   // [s]
  double guard = 0.5e-3;     // [s] intra-slot guard time
};

class LmacModel final : public AnalyticMacModel {
 public:
  explicit LmacModel(ModelContext ctx, LmacConfig cfg = {});

  // The registry's default configuration over `ctx`: LmacConfig{} with the
  // frame grown to hold the 2-hop neighbourhood (dense deployments) and
  // the slot box widened to fit CM + data on the context's radio (slow
  // radios).  Identical to LmacConfig{} for the paper's calibration.
  static LmacConfig default_config(const ModelContext& ctx);

  std::string_view name() const override { return "LMAC"; }
  const ParamSpace& params() const override { return space_; }

  PowerBreakdown power_at_ring(const std::vector<double>& x,
                               int d) const override;
  double hop_latency(const std::vector<double>& x, int d) const override;
  // kV2Queueing service time: one owned data slot per frame, so the
  // forwarding resource is held one frame length per relayed packet.
  double service_time(const std::vector<double>& x) const override;
  // TDMA drains a ring in parallel — every member owns a data slot per
  // frame — so the ring-aggregate service quantum is frame / ring size,
  // not the single-node frame that service_time() reports.
  double ring_service_quantum(const std::vector<double>& x,
                              int d) const override;

  // One lane-generic body over a point block (util/simd.h for_lanes);
  // bit-identical to the scalar entry points (mac/model.h batch
  // contract).  The kV2Queueing term is queue_.delay_rings over the
  // per-ring TDMA quantum frame / nodes_in_ring(d).
  void evaluate_batch(const double* xs, std::size_t n, double* energies,
                      double* latencies, double* margins) const override;

  const LmacConfig& config() const { return cfg_; }

  double frame_length(const std::vector<double>& x) const {
    return cfg_.n_slots * x[0];
  }
  // Minimum slot width that fits startup + CM + data + guard.
  double min_slot_width() const;

 private:
  double protocol_margin(const std::vector<double>& x) const override;

  // Batch-kernel invariants, precomputed once at construction (ctx and
  // cfg are immutable afterwards) with the scalar path's expressions.
  struct BatchCoeffs {
    double stx_num = 0, srx_num = 0, hop_k = 0;
    double min_slot = 0, f_out1 = 0;
    std::vector<double> tx_d, rx_d, ring_n;  // per ring, index d-1
  };

  LmacConfig cfg_;
  ParamSpace space_;
  BatchCoeffs bc_;
  UniformQueue queue_;
};

}  // namespace edb::mac
