// Behavioural X-MAC for the simulator.
//
// Implements the actual strobed-preamble handshake the analytic model
// averages over:
//
//   sender:   [strobe][listen gap][strobe][listen gap]... until the parent
//             answers with an early ACK (or a whole wake interval elapses),
//             then [data][await ack]
//   receiver: polls every tw; a strobe addressed to it triggers an early
//             ACK and it stays awake for the data, then ACKs it
//   others:   a foreign strobe sends them straight back to sleep
//
// One packet is serviced at a time; the queue drains back-to-back (the
// receiver is known awake immediately after an exchange, but we conservatively
// re-strobe per packet, as original X-MAC does without its optional burst
// optimisation).
#pragma once

#include "sim/mac_protocol.h"

namespace edb::sim {

struct XmacSimParams {
  double tw = 0.5;        // wake/poll interval [s]
  int max_retries = 3;    // data retransmissions before dropping
};

class XmacSim : public MacProtocol {
 public:
  XmacSim(MacEnv env, XmacSimParams params);

  std::string_view name() const override { return "X-MAC/sim"; }
  void start() override;
  void enqueue(const Packet& packet) override;
  void on_frame(const Frame& frame) override;

  double strobe_airtime() const;
  double gap_duration() const;

 private:
  enum class State {
    kIdle,          // radio asleep, nothing to do
    kPolling,       // periodic channel sample
    kStrobing,      // transmitting one strobe
    kGapListen,     // listening for the early ACK between strobes
    kSendingData,   // data frame on the air
    kAwaitAck,      // waiting for the link-layer ACK
    kAwaitData,     // receiver: early ACK sent, waiting for data
    kSendingCtrl,   // receiver: early ACK / ACK on the air
  };

  void poll();
  void end_poll();
  void try_send();
  void send_strobe();
  void end_strobe();
  void gap_timeout();
  void send_data();
  void ack_timeout();
  void finish_packet(bool success);
  void go_idle() override;

  XmacSimParams params_;
  State state_ = State::kIdle;
  int poll_extensions_ = 0;
  double strobe_deadline_ = 0;
};

}  // namespace edb::sim
