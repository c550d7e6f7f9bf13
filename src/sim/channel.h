// Unit-disk broadcast channel with collision semantics.
//
// Propagation is idealised (zero delay, fixed communication range).  A node
// receives a frame iff:
//   * it is within `comm_range` of the sender,
//   * its radio is listening when the transmission starts (a radio woken
//     mid-frame has missed the preamble), and
//   * no other transmission overlaps the frame at that receiver (collision
//     corrupts both frames — no capture effect).
//
// The channel also answers carrier-sense queries (`busy_near`) used by the
// contention-based MACs.
#pragma once

#include <unordered_map>
#include <vector>

#include "sim/frame.h"
#include "sim/radio_sm.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace edb::sim {

// MAC-side receiver interface.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void on_frame(const Frame& frame) = 0;
};

class Channel {
 public:
  Channel(Scheduler& scheduler, double comm_range);

  // Failure injection: every otherwise-successful frame reception is
  // independently dropped with probability `p` (fading, interference from
  // outside the model).  Deterministic under `seed`.
  void set_loss_probability(double p, std::uint64_t seed = 0x10055ULL);

  // Registers a node.  `radio` must outlive the channel.  The frame sink
  // (the node's MAC) is attached later via set_sink — MACs are constructed
  // after the channel because their environment references it.
  void add_node(int id, double x, double y, Radio* radio);
  void set_sink(int id, FrameSink* sink);

  // Called after all nodes are added; precomputes neighbour lists.
  // Idempotent.
  void freeze();

  // Starts a transmission of `frame` lasting `duration` seconds from
  // `sender` (whose radio the caller must already have put in kTx).
  void transmit(int sender, const Frame& frame, double duration);

  // Carrier sense: is any transmission in range of `node` in progress?
  bool busy_near(int node) const;

  // Low-power-listening energy detector: true if any transmission in range
  // of `node` overlapped the interval [t, now] (i.e. it started before now
  // and ends at or after t).  X-MAC polls use this to decide whether the
  // channel showed energy at any point during the poll window.
  bool energy_since(int node, double t) const;

  const std::vector<int>& neighbours(int node) const;
  std::size_t frames_sent() const { return frames_sent_; }
  std::size_t collisions() const { return collisions_; }
  std::size_t injected_losses() const { return injected_losses_; }

 private:
  struct NodeEntry {
    double x = 0, y = 0;
    Radio* radio = nullptr;
    FrameSink* sink = nullptr;
    std::vector<int> neighbours;
    // End time of the latest in-range transmission heard (for energy_since).
    double last_energy_end = -1.0;
    // Ongoing reception bookkeeping.
    bool receiving = false;
    bool corrupted = false;
    std::uint64_t rx_tx_id = 0;
  };

  // A frame on the air, kept flat so a steady-state frame never allocates.
  struct ActiveTx {
    std::uint64_t id;
    int sender;
    Frame frame;
  };

  bool in_range(const NodeEntry& a, const NodeEntry& b) const;
  void finish(std::uint64_t tx_id);

  Scheduler& scheduler_;
  double comm_range_;
  std::unordered_map<int, NodeEntry> nodes_;
  std::vector<ActiveTx> active_;
  std::uint64_t next_tx_id_ = 1;
  std::size_t frames_sent_ = 0;
  std::size_t collisions_ = 0;
  std::size_t injected_losses_ = 0;
  double loss_probability_ = 0.0;
  Rng loss_rng_{0};
  bool frozen_ = false;
};

}  // namespace edb::sim
