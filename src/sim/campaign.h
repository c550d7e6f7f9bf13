// Simulation campaigns: R replications x S scenarios through the generic
// deterministic fan-out engine.
//
// A campaign is the simulator-side analogue of a core sweep batch: every
// (scenario, replication) pair is one independent job fanned through
// engine::Fan (engine/fan.h), so campaigns inherit the engine's
// determinism contract.  Concretely:
//
//   * Every replication derives its RNG streams (MAC timers, traffic
//     phases, channel loss, LMAC slot draw) with splitmix64 from
//     (campaign seed, scenario_seed, replication index) — never from the
//     submission index — so the same (scenario, seed, R) triple produces
//     byte-identical metric fingerprints at any thread count and under
//     any shard/submission order.
//   * The deployment layout derives from scenario_seed alone, so all
//     replications of a scenario measure the same network and the
//     replication spread isolates protocol/traffic randomness.
//   * Per-worker kernel scratch is arena-backed (sim::SimArena): one
//     thread runs replication after replication against recycled
//     scheduler and metrics storage with no per-event allocations in
//     steady state.
//
// Scenario aggregation (Welford mean / CI over replications) is folded in
// replication order on the calling thread, so the summary statistics are
// as reproducible as the raw metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/fan.h"
#include "mac/model.h"
#include "sim/simulation.h"
#include "util/stats.h"

namespace edb::sim {

// One campaign cell: a deployment, a behavioural protocol and the
// operating point to run it at.  `scenario_seed` is the scenario's stable
// identity (catalog scenarios pass CatalogScenario::sim_seed()); it, not
// the position in the batch, keys every derived stream.
struct CampaignScenario {
  std::string name;            // label for reports ("dense-ring/17", ...)
  std::string protocol;        // mac/registry spelling ("xmac", "X-MAC")
  std::vector<double> x;       // analytic operating point
  // The deployment the analytic model sees: corridor shape, radio, packet
  // format and traffic (context.traffic_model()).  Set context.fs: its
  // default is the paper's 6.5e-5 packets/s, which a short replication
  // would barely sample.
  mac::ModelContext context;
  double loss_probability = 0.0;  // Channel::set_loss_probability
  double duration = 2000.0;       // simulated seconds per replication
  int lmac_slots = 16;            // LMAC frame size (ignored otherwise)
  std::uint64_t scenario_seed = 1;
};

// What one replication measured; mirrors what the analytic models output.
struct ReplicationMetrics {
  double bottleneck_power = 0;  // mean radio power at ring 1 [W]
  double deep_delay = 0;        // mean e2e delay from the deepest ring [s]
  double delivery_ratio = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t frames = 0;
  std::uint64_t collisions = 0;
  std::uint64_t events = 0;     // kernel events executed
};

struct CampaignResult {
  std::string name;
  std::string protocol;
  std::vector<ReplicationMetrics> reps;  // replication order
  Welford power;      // over reps' bottleneck_power
  Welford delay;      // over reps' deep_delay
  Welford delivery;   // over reps' delivery_ratio

  // Canonical byte-exact serialization (hex floats) of every replication
  // metric: the unit of the campaign determinism contract.  Two runs are
  // "the same campaign result" iff their fingerprints match byte for
  // byte.
  std::string fingerprint() const;
};

struct CampaignOptions {
  int replications = 3;
  int threads = 0;        // fan width; 0 = hardware threads, 1 = caller
  std::uint64_t seed = 1; // campaign-level base seed
};

class Campaign {
 public:
  explicit Campaign(CampaignOptions opts = {});

  const CampaignOptions& options() const { return opts_; }

  // Fans replications x scenarios; results[i] belongs to scenarios[i].
  // Asserts every scenario names a sim-supported protocol with a valid
  // operating point (probe with sim_supported / make_sim_factory first
  // when the input is not already vetted).
  std::vector<CampaignResult> run(
      const std::vector<CampaignScenario>& scenarios);

  // The per-replication stream seed: splitmix64 chain over the campaign
  // seed, the scenario's identity seed and the replication index.
  // Exposed so tests can pin the derivation.
  static std::uint64_t replication_seed(std::uint64_t campaign_seed,
                                        std::uint64_t scenario_seed,
                                        int replication);

  // Runs one replication (the body of one fan job).  `arena` may be null;
  // passing one recycles kernel scratch across calls on the same thread.
  static ReplicationMetrics run_replication(const CampaignScenario& scenario,
                                            std::uint64_t rep_seed,
                                            SimArena* arena);

 private:
  CampaignOptions opts_;
  engine::Fan fan_;
};

}  // namespace edb::sim
