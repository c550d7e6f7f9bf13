// Behavioural LMAC for the simulator.
//
// Global TDMA frame of `n_slots` slots of `t_slot` seconds.  Every node
// owns one slot (assigned collision-free over 2-hop neighbourhoods by the
// builder).  At each slot boundary all nodes wake: the owner transmits its
// control message (CM) announcing whether data follows and for whom, then
// the data frame; everyone else listens to the CM and sleeps unless
// addressed.  No ACKs, no carrier sensing — slots are collision-free by
// construction.
//
// The radio is woken `t_startup` before each slot boundary so the listener
// is settled when the CM starts, mirroring the per-slot startup cost the
// analytic model charges.
#pragma once

#include "sim/mac_protocol.h"

namespace edb::sim {

struct LmacSimParams {
  double t_slot = 0.05;  // slot duration [s]
  int n_slots = 16;      // slots per frame
};

class LmacSim : public MacProtocol {
 public:
  LmacSim(MacEnv env, LmacSimParams params);

  std::string_view name() const override { return "LMAC/sim"; }
  void start() override;
  void enqueue(const Packet& packet) override;
  void on_frame(const Frame& frame) override;

  double frame_length() const { return params_.n_slots * params_.t_slot; }
  double ctrl_airtime() const {
    return env_.packet.ctrl_airtime(radio_params());
  }

 private:
  enum class State {
    kAsleep,
    kListenCtrl,   // awake for someone else's control message
    kAwaitData,    // CM addressed us; staying for the data
    kOwnerTx,      // transmitting CM (+ data) in the owned slot
  };

  void slot_boundary(int slot);
  void owner_slot();
  void listener_slot();
  void ctrl_listen_timeout();
  void go_idle() override;

  LmacSimParams params_;
  State state_ = State::kAsleep;
};

}  // namespace edb::sim
