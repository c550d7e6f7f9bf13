// Behavioural MAC protocol interface for the simulator.
//
// A MacProtocol instance runs on one node.  It owns the node's radio
// schedule (it is the only component that calls Radio::set_state), receives
// frames from the channel, and accepts application packets to deliver to
// the node's tree parent.  Data frames addressed to this node are handed
// up through MacEnv::deliver; the Node layer decides whether to absorb
// (sink) or re-enqueue them (forwarding).
//
// The base also holds the unicast exchange the five behavioural MACs
// share: the packet queue, the one exchange timer, frame sends, the
// sender's ACK wait, the receiver's ACK-then-deliver handshake and the
// low-power-listening channel sample.  A protocol keeps its own state
// enum, its schedule (polls, slots, tones, strobes) and its decisions,
// and sets its state before calling a helper.  No helper puts the radio
// in kTx before a send: every Radio::set_state call closes an interval
// of the energy meter, so a redundant one would change the energy sums'
// bits.  Callers key the radio up themselves, and only where it is not
// already transmitting.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string_view>

#include "net/packet.h"
#include "net/radio.h"
#include "sim/channel.h"
#include "sim/frame.h"
#include "sim/radio_sm.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace edb::sim {

struct NodeInfo {
  int id = -1;
  int parent = -1;   // next hop toward the sink (-1 for the sink itself)
  int depth = 0;     // ring index (0 = sink)
  bool is_sink = false;
  int lmac_slot = -1;  // owned TDMA slot (LMAC only; set by the builder)
};

// Everything a MAC implementation needs from its host node.
struct MacEnv {
  Scheduler* scheduler = nullptr;
  Channel* channel = nullptr;
  Radio* radio = nullptr;
  net::PacketFormat packet;
  NodeInfo info;
  Rng rng{0};
  // Upcall for data addressed to this node.
  std::function<void(const Packet&)> deliver;
};

class MacProtocol : public FrameSink {
 public:
  explicit MacProtocol(MacEnv env);

  virtual std::string_view name() const = 0;
  // Begins the protocol's periodic operation (polling / slot schedule).
  virtual void start() = 0;
  // Accepts an application (or forwarded) packet for the tree parent.
  virtual void enqueue(const Packet& packet) = 0;

  // Diagnostics.
  std::size_t queue_length() const { return queue_.size(); }
  std::size_t packets_sent() const { return packets_sent_; }
  std::size_t packets_dropped() const { return packets_dropped_; }

 protected:
  // The protocol's idle step: its idle state and the radio asleep.
  virtual void go_idle() = 0;

  double now() const { return env_.scheduler->now(); }
  const net::RadioParams& radio_params() const {
    return env_.radio->params();
  }
  double data_airtime() const {
    return env_.packet.data_airtime(radio_params());
  }
  double ack_airtime() const {
    return env_.packet.ack_airtime(radio_params());
  }

  // Puts `frame` on the air from this node for `airtime` seconds, then
  // runs `then` on the exchange timer.  The radio must already be in kTx.
  void send(Frame frame, double airtime, EventFn then);
  // send() of the queue head as a data frame to the parent.
  void send_head(EventFn then);
  // Sender: the data frame has left.  Listens for the link-layer ACK and
  // runs `on_timeout` if none arrives within ack + 2 turnarounds + 0.1 ms.
  void await_ack(EventFn on_timeout);
  // After the rx->tx turnaround, sends an ACK-sized `type` frame to `to`,
  // then runs `then`.
  void reply(FrameType type, int to, EventFn then);
  // Receiver: ACKs `data` after the turnaround, then goes idle and hands
  // the packet up.
  void acknowledge(const Frame& data);
  // Receiver without a link-layer ACK: goes idle and hands `data` up now.
  void accept(const Frame& data);
  // Counts the queue head as sent or dropped, removes it and resets the
  // retry count.
  void finish_head(bool delivered);
  // Low-power listening: opens a channel sample now and runs `then` after
  // poll_duration(); energy_since(listen_window_start_) tells whether the
  // channel showed energy in the window.
  void sample_channel(EventFn then);
  // The medium was busy at a send attempt: goes idle and runs `retry`
  // after U(0.5, 1) x `interval`.
  void defer_send(double interval, EventFn retry);

  MacEnv env_;
  std::deque<Packet> queue_;
  EventHandle timer_;  // the exchange's one pending step
  int retries_ = 0;    // retransmissions of the queue head so far
  double listen_window_start_ = 0;
  // The pending reply's continuation and the packet an ACK hands up.  Kept
  // here, they leave the reply's events capturing only `this` and small
  // values, which fit std::function's in-place buffer, so an ACK does not
  // allocate.  A reply is pending only in timer_, so one of each suffices.
  EventFn reply_then_;
  Packet acked_;
  std::size_t packets_sent_ = 0;
  std::size_t packets_dropped_ = 0;
};

using MacFactory = std::function<std::unique_ptr<MacProtocol>(MacEnv)>;

}  // namespace edb::sim
