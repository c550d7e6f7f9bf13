// Front door of the tuning service: the paper's question — "which MAC
// protocol and operating point should this deployment run?" — served as
// queries instead of ad-hoc figure drivers.
//
// Synchronous callers use query()/query_batch(); asynchronous callers
// submit() a query, keep the Ticket, and poll()/wait() for the result.
//
// A TuningService is a Dispatcher (service/dispatcher.h: admission
// order, micro-batching, latency accounting, shutdown) whose routing tag
// is the ticket, so concurrent submitters get cross-request dedup for
// free.  A query the dispatcher rejects (shed,
// shut down) comes back as an immediately-failed ticket; the tenant for
// per-tenant limits is TuningQuery::tenant.  stats() is the dispatcher's;
// metrics_text() / metrics_json() render the process-wide registry.
//
// Thread-safety: every member may be called concurrently from any number
// of threads.  Tickets are copyable across threads; wait() may be called
// repeatedly on any copy.  The destructor must not race a submitter — a
// server that cannot guarantee that calls shutdown() first, after which
// racing submitters get failed tickets instead of undefined behaviour.
//
// Determinism: serving is value-preserving — every result's outcomes,
// feasibility flags and infeasibility reasons are bit-identical to a cold
// sequential core::run_sweep over the same canonical inputs, whatever mix
// of cache hits, batch order, thread count or sync/async entry produced
// it.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "service/core.h"

namespace edb::service {

template <class Route>
class Dispatcher;

namespace internal {
struct TicketState;
}

// Handle to one in-flight (or finished) query.  Copyable; all copies
// refer to the same submission.
class Ticket {
 public:
  Ticket() = default;
  bool valid() const { return state_ != nullptr; }

 private:
  friend class TuningService;
  std::shared_ptr<internal::TicketState> state_;
};

class TuningService {
 public:
  explicit TuningService(ServiceOptions opts = {});
  ~TuningService();  // shutdown(/*drain=*/true)

  // Dispatcher::shutdown: stops accepting; drain=true answers every
  // queued query, drain=false fails them kCancelled and cancels the
  // in-flight batch cooperatively.  Idempotent; blocks until settled.
  void shutdown(bool drain);

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  // Synchronous serving (submit + wait under the hood, so sync and async
  // callers share one ordered pipeline).
  Expected<TuningResult> query(const TuningQuery& q);
  // The whole vector is enqueued atomically, so the planner sees it as
  // one batch and dedups/groups across it.
  std::vector<Expected<TuningResult>> query_batch(
      const std::vector<TuningQuery>& qs);

  // Asynchronous serving.
  Ticket submit(TuningQuery q);
  // True once the ticket's result is ready (never blocks).
  bool poll(const Ticket& t) const;
  // Blocks until ready, then returns a copy of the result (wait may be
  // called repeatedly, from any thread).
  Expected<TuningResult> wait(const Ticket& t) const;

  ServiceStats stats() const;

  // Process-wide metrics registry snapshot (obs/metrics.h), rendered as
  // an aligned console table / flat JSON object.  Static: the registry is
  // shared by every service instance and every instrumented subsystem.
  static std::string metrics_text();
  static std::string metrics_json();

 private:
  std::vector<Ticket> enqueue(std::vector<TuningQuery> qs);

  std::unique_ptr<Dispatcher<std::shared_ptr<internal::TicketState>>>
      dispatcher_;
};

}  // namespace edb::service
