#include "sim/xmac_sim.h"

namespace edb::sim {

XmacSim::XmacSim(MacEnv env, XmacSimParams params)
    : MacProtocol(std::move(env)), params_(params) {
  EDB_ASSERT(params_.tw > 2.0 * (strobe_airtime() + gap_duration()),
             "X-MAC wake interval too short for the strobe handshake");
}

double XmacSim::strobe_airtime() const {
  return env_.packet.strobe_airtime(radio_params());
}

double XmacSim::gap_duration() const {
  return ack_airtime() + 2.0 * radio_params().t_turnaround;
}

void XmacSim::start() {
  // Random poll phase desynchronises neighbours.
  const double phase = env_.rng.uniform(0.0, params_.tw);
  env_.scheduler->schedule_in(phase, [this] { poll(); });
}

void XmacSim::poll() {
  env_.scheduler->schedule_in(params_.tw, [this] { poll(); });
  if (state_ != State::kIdle) return;  // busy with an exchange
  state_ = State::kPolling;
  sample_channel([this] { end_poll(); });
}

void XmacSim::end_poll() {
  if (state_ != State::kPolling) return;  // a frame arrived; stay in flow
  // Low-power-listening semantics: a busy channel means a preamble (or
  // data) is in the air — keep listening long enough to catch the start of
  // the next strobe.  Bounded so background data frames cannot pin the
  // radio forever.
  if (env_.channel->energy_since(env_.info.id, listen_window_start_) &&
      poll_extensions_ < 8) {
    ++poll_extensions_;
    listen_window_start_ = now();
    timer_ = env_.scheduler->schedule_in(
        2.0 * (strobe_airtime() + gap_duration()), [this] { end_poll(); });
    return;
  }
  poll_extensions_ = 0;
  // Nothing heard; if traffic is queued, start the preamble now (the poll
  // doubles as the pre-transmit carrier sense).
  if (!queue_.empty()) {
    try_send();
    return;
  }
  go_idle();
}

void XmacSim::enqueue(const Packet& packet) {
  queue_.push_back(packet);
  if (state_ == State::kIdle) try_send();
}

void XmacSim::try_send() {
  EDB_ASSERT(!queue_.empty(), "try_send with empty queue");
  if (env_.channel->busy_near(env_.info.id)) {
    // Medium busy: retry after a wake interval (rare at these loads).
    defer_send(params_.tw, [this] {
      if (state_ == State::kIdle && !queue_.empty()) try_send();
    });
    return;
  }
  strobe_deadline_ = now() + params_.tw;
  send_strobe();
}

void XmacSim::send_strobe() {
  state_ = State::kStrobing;
  env_.radio->set_state(RadioState::kTx, now());
  send({.type = FrameType::kStrobe,
        .dst = env_.info.parent,
        .bits = env_.packet.strobe_bits()},
       strobe_airtime(), [this] { end_strobe(); });
}

void XmacSim::end_strobe() {
  state_ = State::kGapListen;
  env_.radio->set_state(RadioState::kListen, now());
  timer_ = env_.scheduler->schedule_in(gap_duration(),
                                       [this] { gap_timeout(); });
}

void XmacSim::gap_timeout() {
  if (state_ != State::kGapListen) return;
  if (now() >= strobe_deadline_) {
    // Preamble spanned a full wake interval: the parent's poll must have
    // been missed (collision); send the data blind as original X-MAC does.
    send_data();
    return;
  }
  send_strobe();
}

void XmacSim::send_data() {
  state_ = State::kSendingData;
  env_.radio->set_state(RadioState::kTx, now());
  send_head([this] {
    state_ = State::kAwaitAck;
    await_ack([this] { ack_timeout(); });
  });
}

void XmacSim::ack_timeout() {
  if (state_ != State::kAwaitAck) return;
  if (++retries_ <= params_.max_retries) {
    strobe_deadline_ = now() + params_.tw;
    send_strobe();
    return;
  }
  finish_packet(/*success=*/false);
}

void XmacSim::finish_packet(bool success) {
  finish_head(success);
  if (!queue_.empty()) {
    try_send();
  } else {
    go_idle();
  }
}

void XmacSim::go_idle() {
  state_ = State::kIdle;
  poll_extensions_ = 0;
  env_.radio->set_state(RadioState::kSleep, now());
}

void XmacSim::on_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kStrobe: {
      if (frame.dst != env_.info.id) {
        // Foreign strobe: the short-preamble advantage — back to sleep.
        if (state_ == State::kPolling) {
          timer_.cancel();
          go_idle();
        }
        return;
      }
      if (state_ != State::kPolling) return;  // mid-exchange; ignore
      timer_.cancel();
      // Answer with the early ACK after the rx->tx turnaround (the strobing
      // sender needs its own tx->rx turnaround to be listening again).
      state_ = State::kSendingCtrl;
      reply(FrameType::kEarlyAck, frame.src, [this] {
        state_ = State::kAwaitData;
        env_.radio->set_state(RadioState::kListen, now());
        // Give the sender time to start the data frame.
        const double timeout =
            data_airtime() + 4.0 * radio_params().t_turnaround + 1e-3;
        timer_ = env_.scheduler->schedule_in(timeout, [this] {
          if (state_ == State::kAwaitData) go_idle();
        });
      });
      return;
    }
    case FrameType::kEarlyAck: {
      if (frame.dst != env_.info.id || state_ != State::kGapListen) return;
      timer_.cancel();
      // Turnaround before the data so the receiver is listening again.
      state_ = State::kSendingData;
      timer_ = env_.scheduler->schedule_in(radio_params().t_turnaround,
                                           [this] { send_data(); });
      return;
    }
    case FrameType::kData: {
      if (frame.dst != env_.info.id || state_ != State::kAwaitData) return;
      // Link-layer ACK after the turnaround, then hand the packet up.
      state_ = State::kSendingCtrl;
      acknowledge(frame);
      return;
    }
    case FrameType::kAck: {
      if (frame.dst != env_.info.id || state_ != State::kAwaitAck) return;
      timer_.cancel();
      finish_packet(/*success=*/true);
      return;
    }
    default:
      return;  // sync/ctrl frames are not part of X-MAC
  }
}

}  // namespace edb::sim
