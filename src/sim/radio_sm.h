// Radio state machine with per-state energy metering.
//
// MAC implementations drive the state (Sleep / Listen / Tx); the channel
// reads it to decide frame delivery; metrics read the accumulated per-state
// time to compute the simulator-side energy that validates the analytic
// models.  Listening and receiving draw the same power on real hardware
// (and in the analytic models), so no separate Rx state is tracked.
#pragma once

#include "net/radio.h"

namespace edb::sim {

enum class RadioState { kSleep, kListen, kTx };

class Radio {
 public:
  explicit Radio(const net::RadioParams& params);

  RadioState state() const { return state_; }

  // Switches state at simulated time `now` (monotone non-decreasing).
  void set_state(RadioState s, double now);

  // Closes the current state's interval at `now` (call once, at sim end).
  void finalize(double now);

  double seconds_in(RadioState s) const;
  // Total energy [J] over the metered interval.
  double energy() const;
  // Energy spent while the given state was active [J].
  double energy_in(RadioState s) const;

  const net::RadioParams& params() const { return params_; }

 private:
  void accumulate(double now);

  net::RadioParams params_;
  RadioState state_ = RadioState::kSleep;
  double state_since_ = 0;
  double seconds_[3] = {0, 0, 0};
};

}  // namespace edb::sim
