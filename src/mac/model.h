// Analytic duty-cycled MAC model interface.
//
// A model maps a tunable parameter vector X (the paper's `X in Theta`) to
// the two performance metrics the game is played over:
//
//   energy(X)  — joules consumed per accounting epoch at the bottleneck
//                node (ring d = 1 carries the whole network's load).  The
//                paper's E axis; decomposed into the six terms of §2:
//                E = Ecs + Etx + Erx + Eovr + Estx + Esrx  (plus sleep).
//   latency(X) — worst-case expected end-to-end delay in seconds (from a
//                ring-D node to the sink).  The paper's L axis.
//
// Both are smooth in X inside the box `params()`; `feasibility_margin`
// exposes protocol-specific constraints (duty cycle <= 1, per-cycle
// capacity, slot sizing) as a signed slack so solvers can penalise
// violations smoothly.
#pragma once

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "net/packet.h"
#include "net/radio.h"
#include "net/ring.h"
#include "net/traffic.h"
#include "util/error.h"
#include "util/simd.h"

namespace edb::mac {

// Analytic model fidelity selector (DESIGN.md §9).
//
//   kV1         — the paper's original E/L forms: latency ignores
//                 queueing entirely.  The default, and bit-frozen: every
//                 kV1 output (solves, envelopes, batch kernels, cached
//                 service results) must stay byte-identical across PRs
//                 (tests/model_version_test.cpp pins pre-kV2 goldens).
//   kV2Queueing — adds a per-ring M/G/1-style waiting term (the ring's
//                 shared schedule is the server, the ring-aggregate flow
//                 the arrival stream) driven by the per-ring traffic
//                 rates and the arrival process's interval moments
//                 (net::TrafficModel), plus a burst-backlog term for
//                 bursty arrivals and a utilization-stability fence:
//                 operating points whose bottleneck-ring utilization
//                 exceeds kQueueStabilityCap are infeasible rather than
//                 producing nonsense latencies.
enum class ModelVersion { kV1, kV2Queueing };

// Bottleneck-ring utilization rho_1 = ring_load(1) * quantum_1 must stay
// below this cap under kV2Queueing; beyond it the M/G/1 term diverges and
// the unsaturated-network assumption behind all three models is void
// anyway.
inline constexpr double kQueueStabilityCap = 0.95;

// Average power per MAC activity [W]; the paper's six-term decomposition
// plus the (tiny) sleep-mode draw.  Multiply by the epoch to get joules.
struct PowerBreakdown {
  double cs = 0;    // carrier sensing / idle listening / channel polling
  double tx = 0;    // data transmission (incl. preambles, contention)
  double rx = 0;    // data reception (incl. ack transmission by receiver)
  double ovr = 0;   // overhearing traffic addressed to others
  double stx = 0;   // synchronisation / schedule transmission
  double srx = 0;   // synchronisation / schedule reception
  double sleep = 0; // sleep-mode floor

  double total() const { return cs + tx + rx + ovr + stx + srx + sleep; }

  PowerBreakdown& operator+=(const PowerBreakdown& o) {
    cs += o.cs; tx += o.tx; rx += o.rx; ovr += o.ovr;
    stx += o.stx; srx += o.srx; sleep += o.sleep;
    return *this;
  }
};

// One tunable parameter: closed box bounds plus presentation metadata.
struct ParamInfo {
  std::string name;
  double lo = 0;
  double hi = 1;
  std::string unit;  // "s", "slots", ...
};

// The box Theta the optimisation runs over.
class ParamSpace {
 public:
  ParamSpace() = default;
  explicit ParamSpace(std::vector<ParamInfo> params);

  std::size_t dim() const { return params_.size(); }
  const ParamInfo& info(std::size_t i) const;
  const std::vector<ParamInfo>& all() const { return params_; }

  std::vector<double> lower() const;
  std::vector<double> upper() const;
  // Box midpoint — a safe starting iterate.
  std::vector<double> midpoint() const;
  // Componentwise clamp into the box.
  std::vector<double> clamp(std::vector<double> x) const;
  bool contains(const std::vector<double>& x, double tol = 1e-12) const;

 private:
  std::vector<ParamInfo> params_;
};

// Everything a protocol model needs about the deployment.  The defaults are
// the calibration used for the paper's figures (see DESIGN.md §6): CC2420
// radio, 32 B payloads, D = 5 rings, density C = 7, one sample per ~4.3 h,
// and a 100 s energy accounting epoch.
struct ModelContext {
  net::RadioParams radio = net::RadioParams::cc2420();
  net::PacketFormat packet = net::PacketFormat::default_wsn();
  net::RingTopology ring{};
  double fs = 6.5e-5;          // per-source sampling rate [packets/s]
  double energy_epoch = 100.0; // accounting horizon for E [s]

  // Arrival-process shape behind the mean rate fs.  kV1 ignores these
  // (only the mean enters the paper's forms); kV2Queueing consumes the
  // interval moments through traffic_model().  Defaults mirror
  // net::TrafficModel's.
  net::ArrivalProcess arrivals = net::ArrivalProcess::kPeriodic;
  double jitter_frac = 0.1;    // periodic arrivals only
  double burst_factor = 1.0;   // peak-to-mean ratio (bursty arrivals)

  ModelVersion model_version = ModelVersion::kV1;

  Expected<bool> validate() const;
  net::RingTraffic traffic() const { return net::RingTraffic(ring, fs); }
  // The per-source generation process: fs plus the arrival-shape knobs.
  net::TrafficModel traffic_model() const {
    net::TrafficModel t;
    t.fs = fs;
    t.jitter_frac = jitter_frac;
    t.arrivals = arrivals;
    t.burst_factor = burst_factor;
    return t;
  }
};

// The deployment walk: f(name, member) on every value-affecting field, in
// the one order the cache key, the QUERY wire body and the catalog
// fingerprint share.  `member` is const when ctx is, so the walk serves
// readers and writers.  The radio's display name affects no value and is
// not visited.
template <typename Ctx, typename F>
  requires std::is_same_v<std::remove_const_t<Ctx>, ModelContext>
void for_each_field(Ctx& ctx, F&& f) {
  f("radio.p_tx", ctx.radio.p_tx);
  f("radio.p_rx", ctx.radio.p_rx);
  f("radio.p_sleep", ctx.radio.p_sleep);
  f("radio.bitrate", ctx.radio.bitrate);
  f("radio.t_startup", ctx.radio.t_startup);
  f("radio.t_turnaround", ctx.radio.t_turnaround);
  f("radio.t_cca", ctx.radio.t_cca);
  f("packet.payload", ctx.packet.payload_bytes);
  f("packet.header", ctx.packet.header_bytes);
  f("packet.ack", ctx.packet.ack_bytes);
  f("packet.strobe", ctx.packet.strobe_bytes);
  f("packet.ctrl", ctx.packet.ctrl_bytes);
  f("packet.sync", ctx.packet.sync_bytes);
  f("ring.depth", ctx.ring.depth);
  f("ring.density", ctx.ring.density);
  f("fs", ctx.fs);
  f("energy_epoch", ctx.energy_epoch);
  // Arrival shape and model version are value-affecting under
  // kV2Queueing; they are visited unconditionally so a kV1 and a
  // kV2Queueing query over one deployment never share a key
  // (tests/model_version_test.cpp pins the no-cross-version-hit rule).
  f("arrivals", ctx.arrivals);
  f("jitter_frac", ctx.jitter_frac);
  f("burst_factor", ctx.burst_factor);
  f("model_version", ctx.model_version);
}

class AnalyticMacModel {
 public:
  explicit AnalyticMacModel(ModelContext ctx);
  virtual ~AnalyticMacModel() = default;

  AnalyticMacModel(const AnalyticMacModel&) = delete;
  AnalyticMacModel& operator=(const AnalyticMacModel&) = delete;

  virtual std::string_view name() const = 0;
  virtual const ParamSpace& params() const = 0;

  // Average radio power of a node in ring d under parameters x [W].
  virtual PowerBreakdown power_at_ring(const std::vector<double>& x,
                                       int d) const = 0;

  // Expected one-hop forwarding latency at ring d [s]: time from the packet
  // being ready at a ring-d node to its reception at the ring-(d-1) parent.
  virtual double hop_latency(const std::vector<double>& x, int d) const = 0;

  // Extra latency paid once at the source before the first hop (e.g. the
  // DMAC wait for the node's staggered transmit slot).  Default: 0.
  virtual double source_wait(const std::vector<double>& x) const;

  // Per-exchange channel hold time [s] — how long one forwarding exchange
  // occupies the shared medium.  Default: hop_latency(x, 1) (one full hop
  // exchange, the X-MAC case).  DMAC overrides with the cycle T (one
  // contended data slot per staggered cycle per neighbourhood) and LMAC
  // with the frame length (one owned data slot per frame).
  virtual double service_time(const std::vector<double>& x) const;

  // Seconds of ring-d schedule consumed per queued packet — the
  // M/G/1 service quantum of the kV2Queueing waiting term, with the RING
  // as the server.  Default: service_time(x) (contention serialises the
  // ring's neighbourhood, so one exchange drains at a time).  LMAC
  // overrides with frame / nodes_in_ring(d): TDMA rings drain one packet
  // per owned slot, in parallel across the ring's nodes.
  virtual double ring_service_quantum(const std::vector<double>& x,
                                      int d) const;

  // The kV2Queueing waiting term, summed over the D rings of the
  // forwarding path [s] (DESIGN.md §9).  Two scales:
  //
  //   cell:   sum_d  0.5 * Ca^2 * rho_d * s_d / (1 - rho_d),
  //           rho_d = ring_load(d) * s_d,  s_d = ring_service_quantum(d)
  //   burst:  max(0, 1 - 1 / (B * rho_1)) * T_on / 2   (bursty only),
  //           T_on = (B - 1)/B * T — the transient backlog while the
  //           burst-period inflow exceeds the bottleneck ring's drain.
  //
  // Kingman/M/G/1 with deterministic service (Cs^2 = 0) and the arrival
  // process's squared CV.  Pure formula — no clamping: past the stability
  // cap the value is meaningless, and the stability fence in
  // feasibility_margin is what keeps solvers out of that region
  // (BatchFence turns those lanes into +inf).
  double queueing_delay(const std::vector<double>& x) const;

  // Signed feasibility slack: > 0 strictly feasible, <= 0 infeasible.
  // Units are normalised so that -1 is "badly infeasible".  This is
  // protocol_margin(x), and under kV2Queueing its min with
  // stability_margin(x) (DESIGN.md §9).
  double feasibility_margin(const std::vector<double>& x) const;

  bool feasible(const std::vector<double>& x) const {
    return feasibility_margin(x) > 0.0;
  }

  // E(X): joules per energy epoch at the bottleneck ring (max over rings).
  double energy(const std::vector<double>& x) const;
  // Per-ring epoch energy decomposition [J].
  PowerBreakdown energy_breakdown(const std::vector<double>& x, int d) const;
  // Index of the ring with maximal power draw.
  int bottleneck_ring(const std::vector<double>& x) const;

  // L(X): worst-case expected e2e delay [s] (source wait + D hop latencies).
  double latency(const std::vector<double>& x) const;

  // Block-oracle entry point (opt/batch.h): evaluates a contiguous block
  // of n parameter vectors, packed row-major (xs = n * params().dim()
  // doubles), writing one value per point into each requested output
  // array.  A null output array skips that metric entirely — callers pay
  // only for what they ask (the fenced solvers ask for the margin and the
  // metrics their fence reads in one call per block).
  //
  // Contract: for every point i, energies[i] / latencies[i] / margins[i]
  // are bit-identical to energy(x_i) / latency(x_i) /
  // feasibility_margin(x_i).  Every model implements it as a native
  // kernel: invariants (airtimes, per-ring traffic rates, the kV2Queueing
  // constants) are precomputed once at construction, and the per-point
  // arithmetic keeps the scalar evaluation order
  // (tests/mac_batch_parity_test.cpp asserts the hex-float equality).
  // The scalar entry points above stay the independent reference.
  virtual void evaluate_batch(const double* xs, std::size_t n,
                              double* energies, double* latencies,
                              double* margins) const = 0;

  const ModelContext& context() const { return ctx_; }

 protected:
  // Checks x dimension and box membership (asserts on violation; models are
  // always called through solvers that clamp first).
  void check_params(const std::vector<double>& x) const;
  // Same box-membership assertion over a packed point block, for the
  // evaluate_batch overrides (mirrors the scalar path's per-call check).
  void check_block(const double* xs, std::size_t n) const;

  // The protocol's own constraints (duty cycle, per-cycle capacity, slot
  // sizing) as a signed slack: the kV1 feasibility margin.
  virtual double protocol_margin(const std::vector<double>& x) const = 0;

  // Signed slack of the kV2Queueing stability fence at the bottleneck
  // ring: (kQueueStabilityCap - rho_1) / kQueueStabilityCap with
  // rho_1 = ring_load(1) * ring_service_quantum(x, 1).
  // feasibility_margin folds it in; every batch kernel must fold it into
  // its margins the same way.
  double stability_margin(const std::vector<double>& x) const;

  // The kV2Queueing term of every batch kernel, written once over the
  // lane type (util/simd.h).  delay(s) and stability(s) are
  // queueing_delay and stability_margin at a ring service quantum s that
  // is one value for every ring (X-MAC's hop exchange, DMAC's cycle, the
  // ring_service_quantum default of the other four); delay_rings(quantum)
  // takes quantum(k) for ring k + 1 (LMAC's TDMA quantum frame / ring
  // size).  All keep queueing_delay's association order.  The double
  // overloads serve the scalar kernels (B-MAC, SCP-MAC, S-MAC, WiseMAC).
  struct UniformQueue {
    explicit UniformQueue(const ModelContext& ctx);

    template <class L, class Quantum>
    L delay_rings(Quantum quantum) const {
      const L one = L::broadcast(1.0), zero = L::broadcast(0.0);
      L q = zero;
      for (std::size_t k = 0; k < load.size(); ++k) {
        const L s = quantum(k);
        const L rho = L::broadcast(load[k]) * s;
        q = q + L::broadcast(qk) * rho * s / (one - rho);
      }
      if (burst) {
        const L rho1 = L::broadcast(load[0]) * quantum(std::size_t{0});
        const L w = util::max(zero, one - one / (L::broadcast(bfac) * rho1));
        q = q + w * L::broadcast(half_t_on);
      }
      return q;
    }
    template <class L>
    L delay(L s) const {
      return delay_rings<L>([s](std::size_t) { return s; });
    }
    template <class L>
    L stability(L s) const {
      const L cap = L::broadcast(kQueueStabilityCap);
      const L rho = L::broadcast(load[0]) * s;
      return (cap - rho) / cap;
    }
    double delay(double s) const;
    double stability(double s) const;

    bool v2 = false;
    bool burst = false;
    double qk = 0, bfac = 0, half_t_on = 0;
    std::vector<double> load;  // ring_load(d), index d-1
  };

  ModelContext ctx_;
};

}  // namespace edb::mac
