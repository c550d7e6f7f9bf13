#include "service/service.h"

#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "service/dispatcher.h"

namespace edb::service {

namespace internal {

struct TicketState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::optional<Expected<TuningResult>> result;
};

}  // namespace internal

namespace {

using TicketPtr = std::shared_ptr<internal::TicketState>;

void fulfil(const TicketPtr& ticket, Expected<TuningResult> result) {
  std::lock_guard<std::mutex> lock(ticket->mutex);
  ticket->result.emplace(std::move(result));
  ticket->done = true;
  ticket->cv.notify_all();
}

}  // namespace

TuningService::TuningService(ServiceOptions opts)
    : dispatcher_(std::make_unique<Dispatcher<TicketPtr>>(
          opts, [](std::vector<TicketPtr>& tickets,
                   std::vector<Expected<TuningResult>>& results) {
            for (std::size_t i = 0; i < tickets.size(); ++i) {
              fulfil(tickets[i], std::move(results[i]));
            }
          })) {}

TuningService::~TuningService() = default;

void TuningService::shutdown(bool drain) { dispatcher_->shutdown(drain); }

std::vector<Ticket> TuningService::enqueue(std::vector<TuningQuery> qs) {
  std::vector<Ticket> tickets(qs.size());
  std::vector<Dispatcher<TicketPtr>::Job> jobs;
  jobs.reserve(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    tickets[i].state_ = std::make_shared<internal::TicketState>();
    jobs.push_back({std::move(qs[i]), tickets[i].state_});
  }
  dispatcher_->admit(std::move(jobs), [](TicketPtr& ticket, Error error) {
    fulfil(ticket, std::move(error));
  });
  return tickets;
}

Ticket TuningService::submit(TuningQuery q) {
  std::vector<TuningQuery> one;
  one.push_back(std::move(q));
  return enqueue(std::move(one)).front();
}

bool TuningService::poll(const Ticket& t) const {
  EDB_ASSERT(t.valid(), "poll on an empty ticket");
  std::lock_guard<std::mutex> lock(t.state_->mutex);
  return t.state_->done;
}

Expected<TuningResult> TuningService::wait(const Ticket& t) const {
  EDB_ASSERT(t.valid(), "wait on an empty ticket");
  std::unique_lock<std::mutex> lock(t.state_->mutex);
  t.state_->cv.wait(lock, [&] { return t.state_->done; });
  return *t.state_->result;
}

Expected<TuningResult> TuningService::query(const TuningQuery& q) {
  return wait(submit(q));
}

std::vector<Expected<TuningResult>> TuningService::query_batch(
    const std::vector<TuningQuery>& qs) {
  std::vector<Expected<TuningResult>> out;
  out.reserve(qs.size());
  for (const Ticket& t : enqueue(qs)) out.push_back(wait(t));
  return out;
}

ServiceStats TuningService::stats() const { return dispatcher_->stats(); }

std::string TuningService::metrics_text() {
  return obs::Registry::global().snapshot().text();
}

std::string TuningService::metrics_json() {
  return obs::Registry::global().snapshot().json();
}

}  // namespace edb::service
