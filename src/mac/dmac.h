// DMAC analytic model (Lu, Krishnamachari, Raghavendra, WCMC 2007).
//
// Slotted, contention-based MAC with a *staggered* wake-up schedule tailored
// to data-gathering trees: a node at depth d opens a receive slot exactly
// when its children (depth d+1) open their transmit slot, so a packet
// cascades sink-wards one slot per hop within a single operational cycle —
// DMAC's "data forwarding interruption" fix for the sleep-delay problem.
//
// Tunable parameter (the paper's X):
//   x[0] = T — operational cycle length [s].
//
// The active slot width mu is fixed by the frame sizes: contention window +
// data + ACK (+ turnarounds).  Every node is active in both its receive and
// its transmit slot every cycle (the original protocol keeps both open to
// support slot chaining), so the duty-cycle cost is 2*mu/T.
//
// Power terms at ring d:
//   cs  = 2*mu*Prx / T                        mandatory rx+tx slots
//   tx  = f_out * [ (cw/2)*Prx + t_data*Ptx + t_ack*Prx ]
//   rx  = f_in  * t_ack*Ptx                   incremental: data reception
//         replaces idle listening already billed to cs at the same power
//   ovr = 0                                   overheard traffic arrives
//         while the node is mandatorily awake (billed to cs)
//   stx/srx: schedule-sync beacon exchange every sync_period
//
// Latency: the source waits T/2 on average for its transmit slot, then the
// packet cascades at one slot (mu) per hop: L = T/2 + D*mu.
//
// Feasibility: at most `k_chain` packets can be chained per active period,
// so f_out(1) * T <= k_chain.
#pragma once

#include "mac/model.h"

namespace edb::mac {

struct DmacConfig {
  double t_cycle_min = 0.5;   // [s]
  double t_cycle_max = 12.0;  // [s] bounded by schedule-sync drift tolerance
  double t_cw = 7e-3;         // [s] contention window inside a slot
  double k_chain = 5.0;       // max packets relayed per active period
  double sync_period = 100.0; // [s] between schedule-sync beacons
  double sync_guard = 2e-3;   // [s] rx guard around the parent's beacon
};

class DmacModel final : public AnalyticMacModel {
 public:
  explicit DmacModel(ModelContext ctx, DmacConfig cfg = {});

  // The registry's default configuration over `ctx`: DmacConfig{} with the
  // cycle box widened where the deployment demands it (the staggered
  // schedule needs one slot per ring, so deep networks raise the floor).
  // Identical to DmacConfig{} for the paper's calibration.
  static DmacConfig default_config(const ModelContext& ctx);

  std::string_view name() const override { return "DMAC"; }
  const ParamSpace& params() const override { return space_; }

  PowerBreakdown power_at_ring(const std::vector<double>& x,
                               int d) const override;
  double hop_latency(const std::vector<double>& x, int d) const override;
  double source_wait(const std::vector<double>& x) const override;
  // kV2Queueing channel hold time: one contended data slot per staggered
  // cycle per neighbourhood, so a backlogged ring drains one packet per
  // cycle T.  (The k_chain bonus applies to the unsaturated cascade the
  // v1 capacity margin guards, not to backlog drain: chained slots need
  // the packet already waiting at successive depths.)
  double service_time(const std::vector<double>& x) const override;

  // One lane-generic body over a point block (util/simd.h for_lanes);
  // bit-identical to the scalar entry points (mac/model.h batch
  // contract).  The kV2Queueing term is queue_.delay(T).
  void evaluate_batch(const double* xs, std::size_t n, double* energies,
                      double* latencies, double* margins) const override;

  const DmacConfig& config() const { return cfg_; }

  // Active slot width mu [s]: contention window + data + ACK + turnarounds.
  double slot_width() const;

 private:
  double protocol_margin(const std::vector<double>& x) const override;

  // Batch-kernel invariants, precomputed once at construction (ctx and
  // cfg are immutable afterwards) with the scalar path's expressions.
  struct BatchCoeffs {
    double mu = 0, cs_num = 0, stx = 0, srx = 0;
    double f_out1 = 0, needed = 0;
    std::vector<double> tx_d, rx_d;  // per ring, index d-1
  };

  DmacConfig cfg_;
  ParamSpace space_;
  BatchCoeffs bc_;
  UniformQueue queue_;
};

}  // namespace edb::mac
