#include "sim/dmac_sim.h"

namespace edb::sim {

DmacSim::DmacSim(MacEnv env, DmacSimParams params)
    : MacProtocol(std::move(env)), params_(params) {
  EDB_ASSERT(params_.max_depth >= env_.info.depth,
             "node deeper than the configured schedule");
  EDB_ASSERT(params_.t_cycle > (params_.max_depth + 1) * slot_width(),
             "cycle too short for the staggered schedule");
}

double DmacSim::slot_width() const {
  return params_.t_cw + data_airtime() + ack_airtime() +
         2.0 * radio_params().t_turnaround;
}

double DmacSim::rx_offset() const {
  return (params_.max_depth - env_.info.depth) * slot_width();
}

double DmacSim::tx_offset() const { return rx_offset() + slot_width(); }

void DmacSim::start() {
  // First receive slot of cycle 0.  The transmit slot starts a hair after
  // its nominal boundary so the receive slot's end event (same timestamp)
  // runs first and releases the radio.
  constexpr double kSlotEdgeGuard = 1e-6;
  env_.scheduler->schedule_at(rx_offset(), [this] { begin_rx_slot(); });
  if (!env_.info.is_sink) {
    env_.scheduler->schedule_at(tx_offset() + kSlotEdgeGuard,
                                [this] { begin_tx_slot(); });
  }
}

void DmacSim::enqueue(const Packet& packet) {
  queue_.push_back(packet);
  // Transmission happens in the periodic tx slot; if we are inside our tx
  // slot right now and idle, contend immediately.
  if (state_ == State::kTxSlotIdle) contend();
}

void DmacSim::contend() {
  state_ = State::kBackoff;
  const double backoff = env_.rng.uniform(0.0, params_.t_cw);
  timer_ = env_.scheduler->schedule_in(backoff, [this] { backoff_expired(); });
}

void DmacSim::begin_rx_slot() {
  env_.scheduler->schedule_in(params_.t_cycle, [this] { begin_rx_slot(); });
  if (state_ != State::kAsleep) return;  // exchange in progress
  state_ = State::kRxSlot;
  env_.radio->set_state(RadioState::kListen, now());
  timer_ = env_.scheduler->schedule_in(slot_width(), [this] { end_rx_slot(); });
}

void DmacSim::end_rx_slot() {
  if (state_ != State::kRxSlot) return;  // reception/ACK still running
  go_idle();
}

void DmacSim::begin_tx_slot() {
  env_.scheduler->schedule_in(params_.t_cycle, [this] { begin_tx_slot(); });
  if (state_ != State::kAsleep) return;
  // The node holds its transmit slot open every cycle (chained wake-up).
  state_ = State::kTxSlotIdle;
  env_.radio->set_state(RadioState::kListen, now());
  timer_ = env_.scheduler->schedule_in(slot_width(), [this] { end_tx_slot(); });
  if (!queue_.empty()) contend();
}

void DmacSim::end_tx_slot() {
  if (state_ != State::kTxSlotIdle) return;
  go_idle();
}

void DmacSim::backoff_expired() {
  if (state_ != State::kBackoff) return;
  if (env_.channel->busy_near(env_.info.id)) {
    // Lost the contention: defer to the next cycle.
    state_ = State::kTxSlotIdle;
    timer_ = env_.scheduler->schedule_in(
        slot_width() - params_.t_cw, [this] { end_tx_slot(); });
    return;
  }
  state_ = State::kSendingData;
  env_.radio->set_state(RadioState::kTx, now());
  send_head([this] {
    state_ = State::kAwaitAck;
    await_ack([this] { ack_timeout(); });
  });
}

void DmacSim::ack_timeout() {
  if (state_ != State::kAwaitAck) return;
  if (++retries_ > params_.max_retries) finish_head(/*delivered=*/false);
  go_idle();  // try again next cycle
}

void DmacSim::go_idle() {
  state_ = State::kAsleep;
  env_.radio->set_state(RadioState::kSleep, now());
}

void DmacSim::on_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kData: {
      if (frame.dst != env_.info.id) return;  // overheard; stay in slot
      if (state_ != State::kRxSlot && state_ != State::kTxSlotIdle) return;
      // ACK after the rx->tx turnaround so the sender is listening again.
      state_ = State::kSendingAck;
      acknowledge(frame);
      return;
    }
    case FrameType::kAck: {
      if (frame.dst != env_.info.id || state_ != State::kAwaitAck) return;
      timer_.cancel();
      finish_head(/*delivered=*/true);
      go_idle();
      return;
    }
    default:
      return;
  }
}

}  // namespace edb::sim
