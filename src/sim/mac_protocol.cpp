#include "sim/mac_protocol.h"

namespace edb::sim {

MacProtocol::MacProtocol(MacEnv env) : env_(std::move(env)) {
  EDB_ASSERT(env_.scheduler && env_.channel && env_.radio,
             "MacEnv missing kernel pointers");
}

void MacProtocol::send(Frame frame, double airtime, EventFn then) {
  frame.src = env_.info.id;
  env_.channel->transmit(env_.info.id, frame, airtime);
  timer_ = env_.scheduler->schedule_in(airtime, std::move(then));
}

void MacProtocol::send_head(EventFn then) {
  EDB_ASSERT(!queue_.empty(), "data frame with an empty queue");
  send({.type = FrameType::kData,
        .dst = env_.info.parent,
        .bits = env_.packet.data_bits(),
        .packet = queue_.front()},
       data_airtime(), std::move(then));
}

void MacProtocol::await_ack(EventFn on_timeout) {
  env_.radio->set_state(RadioState::kListen, now());
  const double timeout =
      ack_airtime() + 2.0 * radio_params().t_turnaround + 1e-4;
  timer_ = env_.scheduler->schedule_in(timeout, std::move(on_timeout));
}

void MacProtocol::reply(FrameType type, int to, EventFn then) {
  reply_then_ = std::move(then);
  timer_ = env_.scheduler->schedule_in(
      radio_params().t_turnaround, [this, type, to] {
        env_.radio->set_state(RadioState::kTx, now());
        send({.type = type, .dst = to, .bits = env_.packet.ack_bits()},
             ack_airtime(), std::move(reply_then_));
      });
}

void MacProtocol::acknowledge(const Frame& data) {
  timer_.cancel();
  EDB_ASSERT(data.packet.has_value(), "data frame without packet");
  acked_ = *data.packet;
  reply(FrameType::kAck, data.src, [this] {
    go_idle();
    env_.deliver(acked_);
  });
}

void MacProtocol::accept(const Frame& data) {
  timer_.cancel();
  EDB_ASSERT(data.packet.has_value(), "data frame without packet");
  const Packet pkt = *data.packet;
  go_idle();
  env_.deliver(pkt);
}

void MacProtocol::finish_head(bool delivered) {
  EDB_ASSERT(!queue_.empty(), "finishing a packet with an empty queue");
  ++(delivered ? packets_sent_ : packets_dropped_);
  queue_.pop_front();
  retries_ = 0;
}

void MacProtocol::sample_channel(EventFn then) {
  listen_window_start_ = now();
  env_.radio->set_state(RadioState::kListen, now());
  timer_ = env_.scheduler->schedule_in(radio_params().poll_duration(),
                                       std::move(then));
}

void MacProtocol::defer_send(double interval, EventFn retry) {
  go_idle();
  env_.scheduler->schedule_in(interval * env_.rng.uniform(0.5, 1.0),
                              std::move(retry));
}

}  // namespace edb::sim
