#include "sim/channel.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.h"

namespace edb::sim {

Channel::Channel(Scheduler& scheduler, double comm_range)
    : scheduler_(scheduler), comm_range_(comm_range) {
  EDB_ASSERT(comm_range_ > 0, "communication range must be positive");
}

void Channel::set_loss_probability(double p, std::uint64_t seed) {
  EDB_ASSERT(p >= 0.0 && p < 1.0, "loss probability must be in [0, 1)");
  loss_probability_ = p;
  loss_rng_ = Rng(seed);
}

void Channel::add_node(int id, double x, double y, Radio* radio) {
  EDB_ASSERT(!frozen_, "cannot add nodes after freeze()");
  EDB_ASSERT(radio != nullptr, "null radio");
  EDB_ASSERT(nodes_.find(id) == nodes_.end(), "duplicate node id");
  NodeEntry e;
  e.x = x;
  e.y = y;
  e.radio = radio;
  nodes_.emplace(id, e);
}

void Channel::set_sink(int id, FrameSink* sink) {
  auto it = nodes_.find(id);
  EDB_ASSERT(it != nodes_.end(), "unknown node");
  EDB_ASSERT(sink != nullptr, "null sink");
  it->second.sink = sink;
}

bool Channel::in_range(const NodeEntry& a, const NodeEntry& b) const {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy <= comm_range_ * comm_range_;
}

void Channel::freeze() {
  for (auto& [id, entry] : nodes_) {
    entry.neighbours.clear();
    for (const auto& [oid, other] : nodes_) {
      if (oid != id && in_range(entry, other)) {
        entry.neighbours.push_back(oid);
      }
    }
  }
  frozen_ = true;
}

const std::vector<int>& Channel::neighbours(int node) const {
  auto it = nodes_.find(node);
  EDB_ASSERT(it != nodes_.end(), "unknown node");
  EDB_ASSERT(frozen_, "freeze() the channel before querying neighbours");
  return it->second.neighbours;
}

void Channel::transmit(int sender, const Frame& frame, double duration) {
  EDB_ASSERT(frozen_, "freeze() the channel before transmitting");
  auto sit = nodes_.find(sender);
  EDB_ASSERT(sit != nodes_.end(), "unknown sender");
  EDB_ASSERT(duration > 0, "transmission must have positive duration");

  const std::uint64_t tx_id = next_tx_id_++;
  active_.push_back({tx_id, sender, frame});
  ++frames_sent_;

  // Lock on every in-range listener; register the energy for everyone in
  // range regardless of radio state (a sleeping radio still misses it, but
  // a poll that overlapped the tail of this frame can ask energy_since).
  for (int nid : sit->second.neighbours) {
    NodeEntry& rx = nodes_.at(nid);
    rx.last_energy_end =
        std::max(rx.last_energy_end, scheduler_.now() + duration);
    if (rx.radio->state() != RadioState::kListen && !rx.receiving) continue;
    if (rx.receiving) {
      // Overlap: both the ongoing and the new frame are lost here.
      rx.corrupted = true;
      ++collisions_;
      continue;
    }
    rx.receiving = true;
    rx.corrupted = false;
    rx.rx_tx_id = tx_id;
  }

  scheduler_.schedule_in(duration, [this, tx_id]() { finish(tx_id); });
}

void Channel::finish(std::uint64_t tx_id) {
  // Swap-and-pop the record before delivery (a sink may transmit).
  auto it = std::find_if(active_.begin(), active_.end(),
                         [tx_id](const ActiveTx& t) { return t.id == tx_id; });
  const ActiveTx tx = std::exchange(*it, active_.back());
  active_.pop_back();
  for (int nid : nodes_.at(tx.sender).neighbours) {
    NodeEntry& rx = nodes_.at(nid);
    if (!rx.receiving || rx.rx_tx_id != tx_id) continue;
    bool ok = !rx.corrupted && rx.radio->state() == RadioState::kListen;
    if (ok && loss_probability_ > 0.0 &&
        loss_rng_.bernoulli(loss_probability_)) {
      ok = false;
      ++injected_losses_;
    }
    rx.receiving = false;
    rx.corrupted = false;
    rx.rx_tx_id = 0;
    if (ok) {
      EDB_ASSERT(rx.sink != nullptr, "frame delivery before set_sink()");
      rx.sink->on_frame(tx.frame);
    }
  }
}

bool Channel::energy_since(int node, double t) const {
  auto it = nodes_.find(node);
  EDB_ASSERT(it != nodes_.end(), "unknown node");
  return it->second.last_energy_end >= t;
}

bool Channel::busy_near(int node) const {
  auto it = nodes_.find(node);
  EDB_ASSERT(it != nodes_.end(), "unknown node");
  return std::any_of(active_.begin(), active_.end(), [&](const ActiveTx& tx) {
    return tx.sender != node && in_range(it->second, nodes_.at(tx.sender));
  });
}

}  // namespace edb::sim
