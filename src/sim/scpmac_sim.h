// Behavioural SCP-MAC for the simulator (extension baseline).
//
// Scheduled channel polling: every node samples the channel on its own
// periodic schedule (phase derived deterministically from the node id —
// the sim's stand-in for the schedule announcements real SCP-MAC
// piggybacks on SYNC packets; the residual uncertainty is covered by the
// sender's wake-up tone).  A sender holds its packet until the *parent's*
// next poll, transmits a short tone bracketing that instant, then the data
// frame; a receiver whose poll detects energy stays awake for the data.
// Link-layer ACKs as in X-MAC.
//
// The per-hop latency is therefore Tp/2 on average plus the tone and the
// exchange — the scheduled-polling advantage over X-MAC's Tw/2-long
// average *preamble* (energy, not latency, is where SCP wins).
#pragma once

#include "sim/mac_protocol.h"

namespace edb::sim {

struct ScpmacSimParams {
  double tp = 0.5;          // common poll period [s]
  double tone_guard = 2e-3; // schedule uncertainty covered by the tone [s]
  int max_retries = 3;
};

class ScpmacSim : public MacProtocol {
 public:
  ScpmacSim(MacEnv env, ScpmacSimParams params);

  std::string_view name() const override { return "SCP-MAC/sim"; }
  void start() override;
  void enqueue(const Packet& packet) override;
  void on_frame(const Frame& frame) override;

  double tone_duration() const {
    return radio_params().poll_duration() + 2.0 * params_.tone_guard;
  }

 private:
  enum class State {
    kIdle,
    kPolling,      // common channel poll (possibly energy-extended)
    kSendingTone,
    kSendingData,
    kAwaitAck,
    kAwaitData,    // poll detected energy; waiting for the data frame
    kSendingAck,
  };

  void poll();
  void end_poll();
  void schedule_tx();
  void begin_tone();
  void ack_timeout();
  void go_idle() override;
  // Deterministic per-node schedule phase in [0, tp).
  static double poll_phase(int node_id, double tp);
  double next_poll_of(int node_id) const;
  double next_poll_time() const;

  ScpmacSimParams params_;
  State state_ = State::kIdle;
  bool tx_scheduled_ = false;
};

}  // namespace edb::sim
