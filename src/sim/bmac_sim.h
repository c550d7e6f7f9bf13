// Behavioural B-MAC for the simulator (extension baseline).
//
// Classic low-power listening: the sender precedes each data frame with a
// single *unaddressed* preamble spanning one full wake interval, so every
// poll inside it detects energy; receivers then stay awake through the end
// of the preamble and catch the data frame that follows.  No ACKs (B-MAC's
// link layer is fire-and-forget here, matching the analytic model), so
// every neighbour that polled during the preamble pays for it — the
// overhearing cost X-MAC's addressed strobes avoid.
//
// Reception relies on the same LPL energy-detector extension as X-MAC:
// a poll that saw energy keeps the radio on; the data frame is a fresh
// transmission start, so the (awake) receiver locks onto it normally.
#pragma once

#include "sim/mac_protocol.h"

namespace edb::sim {

struct BmacSimParams {
  double tw = 0.5;  // wake/poll interval == preamble duration [s]
};

class BmacSim : public MacProtocol {
 public:
  BmacSim(MacEnv env, BmacSimParams params);

  std::string_view name() const override { return "B-MAC/sim"; }
  void start() override;
  void enqueue(const Packet& packet) override;
  void on_frame(const Frame& frame) override;

 private:
  enum class State {
    kIdle,
    kPolling,        // periodic channel sample (possibly energy-extended)
    kSendingPreamble,
    kSendingData,
  };

  void poll();
  void end_poll();
  void try_send();
  void go_idle() override;

  BmacSimParams params_;
  State state_ = State::kIdle;
  double listen_deadline_ = 0;  // upper bound on an energy-extended poll
};

}  // namespace edb::sim
