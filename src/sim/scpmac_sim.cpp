#include "sim/scpmac_sim.h"

#include <cmath>
#include <cstdint>

namespace edb::sim {

ScpmacSim::ScpmacSim(MacEnv env, ScpmacSimParams params)
    : MacProtocol(std::move(env)), params_(params) {
  EDB_ASSERT(params_.tp > 4.0 * (tone_duration() + data_airtime()),
             "SCP-MAC poll period too short");
}

double ScpmacSim::poll_phase(int node_id, double tp) {
  // Deterministic per-node phase: independent schedules (as in SCP-MAC's
  // multi-schedule operation) that any neighbour can recompute from the
  // node id alone — the sim's stand-in for the schedule announcements the
  // real protocol piggybacks on SYNC packets.
  std::uint64_t x = static_cast<std::uint64_t>(node_id) + 1;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return (static_cast<double>(x % 100000) / 100000.0) * tp;
}

double ScpmacSim::next_poll_of(int node_id) const {
  const double phase = poll_phase(node_id, params_.tp);
  const double k = std::floor((now() - phase) / params_.tp) + 1.0;
  return k * params_.tp + phase;
}

double ScpmacSim::next_poll_time() const {
  return next_poll_of(env_.info.id);
}

void ScpmacSim::start() {
  env_.scheduler->schedule_at(next_poll_time(), [this] { poll(); });
}

void ScpmacSim::poll() {
  env_.scheduler->schedule_in(params_.tp, [this] { poll(); });
  if (state_ != State::kIdle) return;
  state_ = State::kPolling;
  sample_channel([this] { end_poll(); });
}

void ScpmacSim::end_poll() {
  if (state_ != State::kPolling) return;
  if (env_.channel->energy_since(env_.info.id, listen_window_start_)) {
    // A tone (or data) is in the air: hold until the data frame arrives.
    state_ = State::kAwaitData;
    const double timeout =
        tone_duration() + data_airtime() + 4.0 * radio_params().t_turnaround +
        2e-3;
    timer_ = env_.scheduler->schedule_in(timeout, [this] {
      if (state_ == State::kAwaitData) go_idle();
    });
    return;
  }
  go_idle();
}

void ScpmacSim::enqueue(const Packet& packet) {
  queue_.push_back(packet);
  schedule_tx();
}

void ScpmacSim::schedule_tx() {
  if (tx_scheduled_ || queue_.empty()) return;
  tx_scheduled_ = true;
  // Start the tone slightly before the *parent's* poll so it brackets it;
  // if that instant already passed (or is now — e.g. a deferral decided at
  // the poll itself), target the following poll instead.
  double start = next_poll_of(env_.info.parent) - params_.tone_guard -
                 radio_params().poll_duration();
  if (start <= now() + 1e-9) start += params_.tp;
  env_.scheduler->schedule_at(start, [this] { begin_tone(); });
}

void ScpmacSim::begin_tone() {
  tx_scheduled_ = false;
  if (queue_.empty()) return;
  if (state_ != State::kIdle) {
    // Busy receiving; try the next poll.
    schedule_tx();
    return;
  }
  if (env_.channel->busy_near(env_.info.id)) {
    // Another sender grabbed this poll; defer.
    schedule_tx();
    return;
  }
  state_ = State::kSendingTone;
  env_.radio->set_state(RadioState::kTx, now());
  send({.type = FrameType::kStrobe,
        .dst = kBroadcast,
        .bits = tone_duration() * radio_params().bitrate},
       tone_duration(), [this] {
         // The data frame follows the tone with the radio still in Tx.
         state_ = State::kSendingData;
         send_head([this] {
           state_ = State::kAwaitAck;
           await_ack([this] { ack_timeout(); });
         });
       });
}

void ScpmacSim::ack_timeout() {
  if (state_ != State::kAwaitAck) return;
  if (++retries_ > params_.max_retries) finish_head(/*delivered=*/false);
  go_idle();
  schedule_tx();  // next common poll
}

void ScpmacSim::go_idle() {
  state_ = State::kIdle;
  env_.radio->set_state(RadioState::kSleep, now());
}

void ScpmacSim::on_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kStrobe:
      return;  // the tone only matters as channel energy
    case FrameType::kData: {
      if (state_ != State::kAwaitData) return;
      if (frame.dst != env_.info.id) {
        timer_.cancel();
        go_idle();  // overheard someone else's exchange
        return;
      }
      state_ = State::kSendingAck;
      acknowledge(frame);
      return;
    }
    case FrameType::kAck: {
      if (frame.dst != env_.info.id || state_ != State::kAwaitAck) return;
      timer_.cancel();
      finish_head(/*delivered=*/true);
      go_idle();
      schedule_tx();
      return;
    }
    default:
      return;
  }
}

}  // namespace edb::sim
