// Simulation container: kernel + channel + nodes + traffic + metrics.
//
// Usage:
//   SimulationConfig cfg;               // radio, packet, traffic, duration
//   Simulation sim(cfg);
//   build_chain(sim, /*depth=*/3);      // or build_ring_corridor(...)
//   sim.assign_lmac_slots(16);          // only for LMAC runs
//   sim.finalize(factory);              // wires MACs to nodes
//   sim.run();
//   sim.metrics().mean_delay_from_depth(3);
//   sim.mean_power_at_depth(1);
//
// Simulations are re-entrant: independent instances share no state, so a
// campaign can run one per thread.  For back-to-back replications on one
// thread, pass a SimArena — the kernel scratch that dominates allocation
// churn (the scheduler's event-record pool and heap, the metrics buffers)
// is then recycled across replications instead of rebuilt.  Arena reuse
// is invisible in the results: it changes where records live, never when
// events fire.
#pragma once

#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/radio.h"
#include "net/traffic.h"
#include "sim/channel.h"
#include "sim/metrics.h"
#include "sim/node.h"
#include "sim/scheduler.h"
#include "sim/traffic_gen.h"

namespace edb::sim {

struct SimulationConfig {
  net::RadioParams radio = net::RadioParams::cc2420();
  net::PacketFormat packet = net::PacketFormat::default_wsn();
  net::TrafficModel traffic{.fs = 0.01, .jitter_frac = 0.1};
  double comm_range = 1.45;
  double duration = 2000.0;   // simulated seconds
  double traffic_stop_frac = 0.9;  // stop generating near the end so
                                   // in-flight packets can drain
  std::uint64_t seed = 1;
};

// Per-worker scratch a campaign reuses across replications: one
// Simulation borrows it at a time (enforced), and each borrow starts from
// a reset kernel with warm capacity.
class SimArena {
 public:
  SimArena() = default;
  SimArena(const SimArena&) = delete;
  SimArena& operator=(const SimArena&) = delete;

 private:
  friend class Simulation;
  Scheduler scheduler_;
  Metrics metrics_;
  bool in_use_ = false;
};

class Simulation {
 public:
  // With an arena the simulation borrows the arena's kernel scratch for
  // its lifetime (the arena must outlive it); without one it owns fresh
  // scratch, which is the historical behaviour.
  explicit Simulation(SimulationConfig cfg, SimArena* arena = nullptr);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Adds a node; depth 0 marks the sink (parent ignored).  Returns its id.
  int add_node(int depth, int parent_id, double x, double y);

  // Greedy 2-hop colouring for LMAC slot ownership; call after all nodes
  // are added, before finalize().  Asserts if n_slots is insufficient.
  void assign_lmac_slots(int n_slots);

  // Freezes the channel and instantiates one MAC per node.
  void finalize(const MacFactory& factory);

  // Starts MACs and traffic, runs to cfg.duration, finalises energy meters.
  void run();

  const SimulationConfig& config() const { return cfg_; }
  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  Channel& channel() { return channel_; }
  Metrics& metrics() { return *metrics_; }
  const Metrics& metrics() const { return *metrics_; }

  std::size_t num_nodes() const { return nodes_.size(); }
  Node& node(int id) { return *nodes_.at(id); }
  const Node& node(int id) const { return *nodes_.at(id); }
  std::vector<Node*> node_ptrs();
  int max_depth() const { return max_depth_; }

  // Radio energy of a node over the run [J].
  double node_energy(int id) const;
  // Mean radio power over nodes at tree depth d [W].
  double mean_power_at_depth(int depth) const;

 private:
  SimulationConfig cfg_;
  SimArena* arena_ = nullptr;
  std::unique_ptr<Scheduler> own_scheduler_;
  std::unique_ptr<Metrics> own_metrics_;
  Scheduler* scheduler_ = nullptr;
  Metrics* metrics_ = nullptr;
  Channel channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<TrafficGenerator> traffic_;
  int max_depth_ = 0;
  bool finalized_ = false;
  bool ran_ = false;
};

}  // namespace edb::sim
