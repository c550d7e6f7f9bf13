// Socket load generator of the serving benchmark.
//
// The calling thread owns every connection and multiplexes them with
// ppoll, so it never blocks on one connection while another has a reply
// (or, open loop, while a send falls due).  Request k of a run is the
// QUERY frame source(k); the server answers each connection in request
// order, so the reply at the head of a connection answers the oldest
// request in flight on it.  Replies are parsed by server::next_frame.
//
//   closed loop — every connection keeps `window` requests in flight and
//                 sends the next one as each reply lands: the throughput
//                 phase.
//   open loop   — request r falls due r / rate seconds into the phase and
//                 is sent then, whatever is still in flight; latency runs
//                 from the due time, so a stall also charges the requests
//                 queued behind it.  The lag of each send behind its due
//                 time is recorded to show the generator kept its schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "server/wire.h"

namespace servebench {

// The encoded QUERY frame of request k, and whether `reply` is the correct
// answer to request k.
using Source = std::function<std::string(std::size_t k)>;
using Check =
    std::function<bool(std::size_t k, const edb::server::FrameView& reply)>;

// The body of one whole encoded frame, as server::next_frame parses it.
std::string frame_body(std::string_view frame);

struct PhaseResult {
  std::size_t attempted = 0;  // requests sent
  std::size_t answered = 0;   // replies that passed the check
  std::size_t failed = 0;     // wrong or ERROR replies, requests lost in transport
  bool transport_ok = true;
  double cpu_s = 0;  // process CPU over the phase, drain included
  std::vector<double> done_at;     // per answered request, since phase start [s]
  std::vector<double> latency_ms;  // per answered request
  std::vector<double> lag_ms;      // open loop: per request, send minus due time
};

// A phase opens `connections` connections to the server on `port` and
// sends requests first, first + 1, ...
PhaseResult closed_loop(std::uint16_t port, int connections, int window,
                        const Source& source, std::size_t first,
                        double seconds, const Check& check);

PhaseResult open_loop(std::uint16_t port, int connections, double rate,
                      const Source& source, std::size_t first, double seconds,
                      const Check& check);

}  // namespace servebench
