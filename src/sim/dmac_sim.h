// Behavioural DMAC for the simulator.
//
// Nodes share a global cycle of length `t_cycle`.  A node at tree depth d
// opens its receive slot at offset (D - d) * mu and its transmit slot one
// slot later (which is exactly the parent's receive slot), so packets
// cascade toward the sink one slot per hop.  Both slots are held open every
// cycle (the original protocol's chained wake-up), matching the analytic
// model's 2*mu/T duty-cycle cost.
//
// Within the transmit slot senders contend with a uniform backoff over the
// contention window and carrier sensing; a busy medium defers the packet to
// the next cycle.  Data is acknowledged; a missing ACK retries next cycle.
#pragma once

#include "sim/mac_protocol.h"

namespace edb::sim {

struct DmacSimParams {
  double t_cycle = 2.0;  // operational cycle [s]
  double t_cw = 7e-3;    // contention window [s]
  int max_depth = 5;     // D: deepest ring in the deployment
  int max_retries = 3;
};

class DmacSim final : public MacProtocol {
 public:
  DmacSim(MacEnv env, DmacSimParams params);

  std::string_view name() const override { return "DMAC/sim"; }
  void start() override;
  void enqueue(const Packet& packet) override;
  void on_frame(const Frame& frame) override;

  // Slot width mu [s] (contention window + data + ACK + turnarounds).
  double slot_width() const;
  double rx_offset() const;  // receive-slot offset within the cycle
  double tx_offset() const;  // transmit-slot offset within the cycle

 private:
  enum class State {
    kAsleep,
    kRxSlot,       // listening in the receive slot
    kTxSlotIdle,   // awake in the transmit slot, not (yet) transmitting
    kBackoff,      // waiting out the contention backoff
    kSendingData,
    kAwaitAck,
    kSendingAck,
  };

  void begin_rx_slot();
  void end_rx_slot();
  void begin_tx_slot();
  void end_tx_slot();
  void contend();
  void backoff_expired();
  void ack_timeout();
  void go_idle() override;

  DmacSimParams params_;
  State state_ = State::kAsleep;
};

}  // namespace edb::sim
