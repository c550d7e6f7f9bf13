// Socket serving tier: a non-blocking epoll event loop in front of the
// transport-free ServiceCore (DESIGN.md §11).
//
// Thread layout (one TuningServer):
//
//   acceptor      — blocking accept() loop; hands each new connection to
//                   a worker round-robin and wakes it via eventfd.
//   N workers     — one epoll loop each.  A connection belongs to exactly
//                   one worker for its whole life (connection affinity),
//                   so per-connection state is single-threaded and the
//                   response order a client observes is its own request
//                   order, independent of N.  Workers decode frames off
//                   per-connection input rings (readv scatter-gather)
//                   and admit queries to the dispatcher; completed
//                   answers come back, one batch at a time, on
//                   a per-worker completion queue (eventfd wake), are
//                   encoded into per-connection output rings and drained
//                   with writev — the write-coalescing half: responses
//                   that complete together leave in one syscall.
//   serve thread  — the shared serving shell's (service/dispatcher.h):
//                   the only caller of ServiceCore::serve(), so pipelined
//                   clients and concurrent connections feed the miss
//                   pipeline real batches and get cross-connection
//                   dedup for free.
//
// Admission, latency accounting and shutdown order are the dispatcher's,
// identical to the in-process tier.  A worker claims a query's response
// slot, then admits it with the HELLO tenant; a rejected query fills its
// slot in place with a non-fatal ERROR frame (kResourceExhausted when
// shed, kUnavailable after shutdown) — the wire spelling of the
// in-process failed ticket.
//
// Protocol violations (bad magic, unknown type, oversized or truncated
// frame, undecodable body) answer with a fatal ERROR frame and close
// after flushing; they never crash the server or affect other
// connections.  shutdown(drain=true) lets every admitted query finish and
// every output ring drain, then closes with a graceful FIN
// (shutdown(SHUT_WR) before close); drain=false closes every connection
// at once and delivers nothing more.
//
// Determinism: the event loop adds no numeric work — queries cross the
// wire bit-exactly (server/wire.h) and answers come from the same
// ServiceCore the in-process tier uses, so a wire-served result stream
// is byte-identical to encoding in-process query_batch answers, at any
// worker count (the loadgen's fatal gate, bench/server_loadgen.cpp).
//
// Thread-safety: start() once; shutdown() from any thread (idempotent);
// port()/stats() any time after start().  Linux-only (epoll, eventfd).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "server/wire.h"
#include "service/core.h"
#include "util/error.h"

namespace edb::server {

// The serving pipeline's options (engine, cache, max_batch, resilience)
// plus the listener address and worker count.  The wire and connection
// limits are fixed (server.cpp): frames up to kMaxFrame, an 8 MiB
// output ring per connection, 1,024 open connections, a listen backlog
// of 128.
struct ServerOptions : service::ServiceOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; port() reports the bound one
  int workers = 1;         // epoll worker loops
};

struct ServerStats {
  std::size_t accepted = 0;     // connections accepted over the lifetime
  std::size_t connections = 0;  // currently open
  std::size_t queries = 0;      // QUERY frames admitted to the core
  std::size_t shed = 0;         // QUERY frames shed at admission
  std::size_t protocol_errors = 0;  // fatal per-connection violations
};

class TuningServer {
 public:
  explicit TuningServer(const ServerOptions& opts);
  ~TuningServer();  // shutdown(drain=true) if still running

  TuningServer(const TuningServer&) = delete;
  TuningServer& operator=(const TuningServer&) = delete;

  // Binds, listens and spawns the acceptor/worker/serve threads.
  // kUnavailable with the errno spelled out when the bind/listen fails.
  Expected<bool> start();

  // Stops accepting.  drain=true: admitted queries finish, output rings
  // drain, connections get a graceful FIN.  drain=false: connections
  // close immediately and the dispatcher cancels its queued and in-flight
  // work.  Idempotent; blocks until all threads have exited.
  void shutdown(bool drain);

  // The bound TCP port (after start(); the ephemeral answer when
  // options.port == 0).
  std::uint16_t port() const;

  ServerStats stats() const;

  const ServerOptions& options() const { return opts_; }

 private:
  struct Impl;
  ServerOptions opts_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace edb::server
