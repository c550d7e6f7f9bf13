#include "sim/bmac_sim.h"

namespace edb::sim {

BmacSim::BmacSim(MacEnv env, BmacSimParams params)
    : MacProtocol(std::move(env)), params_(params) {
  EDB_ASSERT(params_.tw > 4.0 * data_airtime(),
             "B-MAC wake interval too short");
}

void BmacSim::start() {
  const double phase = env_.rng.uniform(0.0, params_.tw);
  env_.scheduler->schedule_in(phase, [this] { poll(); });
}

void BmacSim::poll() {
  env_.scheduler->schedule_in(params_.tw, [this] { poll(); });
  if (state_ != State::kIdle) return;
  state_ = State::kPolling;
  // A preamble plus data can hold the channel for up to tw + data; cap the
  // energy-extended listen at that plus margin.
  listen_deadline_ = now() + params_.tw + 2.0 * data_airtime() + 2e-3;
  sample_channel([this] { end_poll(); });
}

void BmacSim::end_poll() {
  if (state_ != State::kPolling) return;
  if (env_.channel->energy_since(env_.info.id, listen_window_start_) &&
      now() < listen_deadline_) {
    // Energy detected: hold the radio open until the channel quiets down
    // (the data frame arrives as a fresh transmission and is locked onto).
    listen_window_start_ = now();
    timer_ = env_.scheduler->schedule_in(4.0 * data_airtime(),
                                         [this] { end_poll(); });
    return;
  }
  if (!queue_.empty()) {
    try_send();
    return;
  }
  go_idle();
}

void BmacSim::enqueue(const Packet& packet) {
  queue_.push_back(packet);
  if (state_ == State::kIdle) try_send();
}

void BmacSim::try_send() {
  EDB_ASSERT(!queue_.empty(), "try_send with empty queue");
  if (env_.channel->busy_near(env_.info.id)) {
    defer_send(params_.tw, [this] {
      if (state_ == State::kIdle && !queue_.empty()) try_send();
    });
    return;
  }
  // Full-length unaddressed preamble...
  state_ = State::kSendingPreamble;
  env_.radio->set_state(RadioState::kTx, now());
  send({.type = FrameType::kStrobe,
        .dst = kBroadcast,
        .bits = params_.tw * radio_params().bitrate},
       params_.tw, [this] {
         // ...immediately followed by the data frame.
         state_ = State::kSendingData;
         send_head([this] {
           // Fire-and-forget: the link layer offers no ACK.
           finish_head(/*delivered=*/true);
           if (!queue_.empty()) {
             try_send();
           } else {
             go_idle();
           }
         });
       });
}

void BmacSim::go_idle() {
  state_ = State::kIdle;
  env_.radio->set_state(RadioState::kSleep, now());
}

void BmacSim::on_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kStrobe:
      // The preamble carries no address; reception only proves we are
      // awake.  The poll-extension logic already keeps us listening.
      return;
    case FrameType::kData: {
      if (state_ != State::kPolling) return;
      if (frame.dst != env_.info.id) {
        // Overheard to the end — the B-MAC overhearing cost.  Sleep now.
        timer_.cancel();
        go_idle();
        return;
      }
      accept(frame);
      return;
    }
    default:
      return;
  }
}

}  // namespace edb::sim
