#include "sim/simulation.h"

#include <algorithm>

#include "util/math.h"

namespace edb::sim {

Simulation::Simulation(SimulationConfig cfg, SimArena* arena)
    : cfg_(cfg),
      arena_(arena),
      own_scheduler_(arena ? nullptr : std::make_unique<Scheduler>()),
      own_metrics_(arena ? nullptr : std::make_unique<Metrics>()),
      scheduler_(arena ? &arena->scheduler_ : own_scheduler_.get()),
      metrics_(arena ? &arena->metrics_ : own_metrics_.get()),
      channel_(*scheduler_, cfg.comm_range) {
  EDB_ASSERT(cfg_.duration > 0, "simulation duration must be positive");
  EDB_ASSERT(cfg_.traffic_stop_frac > 0 && cfg_.traffic_stop_frac <= 1.0,
             "traffic stop fraction must be in (0, 1]");
  if (arena_) {
    EDB_ASSERT(!arena_->in_use_, "SimArena already borrowed by a live "
                                 "Simulation");
    arena_->in_use_ = true;
    arena_->scheduler_.reset();
    arena_->metrics_.reset();
  }
}

Simulation::~Simulation() {
  // MACs (which hold event handles) die with nodes_ before the arena's
  // scheduler is handed to the next borrower.
  if (arena_) arena_->in_use_ = false;
}

int Simulation::add_node(int depth, int parent_id, double x, double y) {
  EDB_ASSERT(!finalized_, "cannot add nodes after finalize()");
  const int id = static_cast<int>(nodes_.size());
  NodeInfo info;
  info.id = id;
  info.depth = depth;
  info.is_sink = (depth == 0);
  info.parent = info.is_sink ? -1 : parent_id;
  if (!info.is_sink) {
    EDB_ASSERT(parent_id >= 0 && parent_id < id,
               "parent must be added before its children");
  }
  max_depth_ = std::max(max_depth_, depth);
  nodes_.push_back(std::make_unique<Node>(info, x, y, cfg_.radio, metrics_));
  channel_.add_node(id, x, y, &nodes_.back()->radio());
  return id;
}

void Simulation::assign_lmac_slots(int n_slots) {
  EDB_ASSERT(!finalized_, "assign slots before finalize()");
  EDB_ASSERT(n_slots >= 2, "LMAC needs at least two slots");

  // Neighbour lists are needed for the 2-hop colouring; freeze() is
  // idempotent, and all nodes must already be in place.
  channel_.freeze();

  // Uniform-random choice among the free slots (not smallest-first): the
  // analytic LMAC model assumes slot positions are uniform in the frame, so
  // a deterministic ordering would bias per-hop waits toward a full frame.
  Rng rng(cfg_.seed ^ 0x510075ULL);
  std::vector<int> slot(nodes_.size(), -1);
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    std::vector<bool> used(n_slots, false);
    for (int n1 : channel_.neighbours(static_cast<int>(id))) {
      if (slot[n1] >= 0) used[slot[n1]] = true;
      for (int n2 : channel_.neighbours(n1)) {
        if (n2 != static_cast<int>(id) && slot[n2] >= 0) used[slot[n2]] = true;
      }
    }
    std::vector<int> free_slots;
    for (int s = 0; s < n_slots; ++s) {
      if (!used[s]) free_slots.push_back(s);
    }
    EDB_ASSERT(!free_slots.empty(),
               "LMAC slot assignment failed: 2-hop neighbourhood exceeds "
               "the frame size");
    slot[id] = free_slots[rng.uniform_int(free_slots.size())];
  }
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    // NodeInfo is copied into MacEnv at finalize(); patch it now.
    const_cast<NodeInfo&>(nodes_[id]->info()).lmac_slot = slot[id];
  }
}

void Simulation::finalize(const MacFactory& factory) {
  EDB_ASSERT(!finalized_, "finalize() called twice");
  EDB_ASSERT(!nodes_.empty(), "no nodes added");
  channel_.freeze();
  for (auto& n : nodes_) {
    const std::uint64_t seed =
        cfg_.seed * 0x9e3779b97f4a7c15ULL + n->info().id;
    n->wire_mac(scheduler_, &channel_, cfg_.packet, factory, seed);
    channel_.set_sink(n->info().id, &n->mac());
  }
  finalized_ = true;
}

std::vector<Node*> Simulation::node_ptrs() {
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (auto& n : nodes_) out.push_back(n.get());
  return out;
}

void Simulation::run() {
  EDB_ASSERT(finalized_, "finalize() before run()");
  EDB_ASSERT(!ran_, "run() called twice");
  ran_ = true;

  for (auto& n : nodes_) n->mac().start();
  traffic_ = std::make_unique<TrafficGenerator>(*scheduler_, cfg_.traffic,
                                                cfg_.seed ^ 0x7aff1cULL);
  traffic_->start(node_ptrs(), cfg_.duration * cfg_.traffic_stop_frac);
  scheduler_->run_until(cfg_.duration);
  for (auto& n : nodes_) n->radio().finalize(cfg_.duration);
}

double Simulation::node_energy(int id) const {
  return nodes_.at(id)->radio().energy();
}

double Simulation::mean_power_at_depth(int depth) const {
  std::vector<double> powers;
  for (const auto& n : nodes_) {
    if (n->info().depth == depth) {
      powers.push_back(n->radio().energy() / cfg_.duration);
    }
  }
  return mean(powers);
}

}  // namespace edb::sim
