#include "sim/radio_sm.h"

#include "util/error.h"

namespace edb::sim {

Radio::Radio(const net::RadioParams& params) : params_(params) {
  EDB_ASSERT(params_.validate().ok(), "invalid radio parameters");
}

void Radio::accumulate(double now) {
  EDB_ASSERT(now >= state_since_, "radio time went backwards");
  seconds_[static_cast<int>(state_)] += now - state_since_;
  state_since_ = now;
}

void Radio::set_state(RadioState s, double now) {
  accumulate(now);
  state_ = s;
}

void Radio::finalize(double now) { accumulate(now); }

double Radio::seconds_in(RadioState s) const {
  return seconds_[static_cast<int>(s)];
}

double Radio::energy_in(RadioState s) const {
  switch (s) {
    case RadioState::kSleep: return seconds_in(s) * params_.p_sleep;
    case RadioState::kListen: return seconds_in(s) * params_.p_rx;
    case RadioState::kTx: return seconds_in(s) * params_.p_tx;
  }
  return 0;
}

double Radio::energy() const {
  return energy_in(RadioState::kSleep) + energy_in(RadioState::kListen) +
         energy_in(RadioState::kTx);
}

}  // namespace edb::sim
