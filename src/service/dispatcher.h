// The one serving shell in front of ServiceCore, shared by both front
// doors.  Route is the front door's per-query routing tag (a ticket in
// TuningService, a connection response slot in TuningServer); the
// dispatcher only moves it.  A Dispatcher owns the ServiceCore, the
// admission machinery, a bounded queue, one serve thread, the counts, the
// handles of the registry's "service.queue.depth" gauge and latency
// histograms, and shutdown.
//
// Admission: admit() checks each job under one queue lock, in this order;
// the first failing check rejects it:
//
//   accepting     kUnavailable        "service shut down"
//   global bucket kResourceExhausted  "admission rate limit exceeded"
//   tenant bucket kResourceExhausted  "per-tenant rate limit exceeded"
//   queue bound   kResourceExhausted  "submit queue full"
//
// The admitted jobs of one call enter the queue together, so a whole
// query_batch vector reaches the planner as one batch.  Rejections are
// counted ("service.errors.<code>", TenantLimiter::count_shed), then
// passed to admit()'s reject callback on the calling thread, after the
// lock drops.  Shed decisions depend on wall-clock load
// (service/resilience.h).
//
// Threading: the serve thread is ServiceCore::serve's only caller.  It
// takes up to max_batch jobs in arrival order per call, records each
// job's admit -> done latency ("service.latency") and admit -> batch
// start queue wait ("service.queue_wait") once, in the metrics registry
// (the only latency store), then passes the batch to the
// completion callback outside every dispatcher lock.  Completion calls
// never overlap: besides the serve thread, only shutdown(false) makes
// one, after the serve thread has exited.  admit(), shutdown() and
// stats() may be called from any thread.
//
// Shutdown: admissions stop at once.  drain=true answers every queued
// job before the serve thread exits; drain=false cancels the core (the
// in-flight batch returns kCancelled at its next solver stage boundary)
// and completes the queued jobs with kCancelled.  Idempotent; blocks
// until the serve thread has exited; the destructor is shutdown(true).
// The serve thread starts in the constructor and calls back into the
// owner, so an owner declares its Dispatcher after everything the
// callback touches.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/core.h"

namespace edb::service {

template <class Route>
class Dispatcher {
 public:
  struct Job {
    TuningQuery query;
    Route route;
  };
  // Slot i of `results` answers routes[i]; both may be moved from.
  using Complete = std::function<void(std::vector<Route>& routes,
                                      std::vector<Expected<TuningResult>>&
                                          results)>;

  Dispatcher(const ServiceOptions& opts, Complete complete)
      : core_(opts),
        max_batch_(std::max<std::size_t>(1, opts.max_batch)),
        max_queue_(opts.resilience.max_queue),
        bucket_(opts.resilience.rate_limit_qps, opts.resilience.rate_burst),
        tenants_(opts.resilience.tenant_limits),
        complete_(std::move(complete)),
        thread_([this] { serve_loop(); }) {}

  ~Dispatcher() { shutdown(/*drain=*/true); }

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // reject(Route&, Error) answers each rejected job (see header comment).
  template <class Reject>
  void admit(std::vector<Job> jobs, Reject&& reject) {
    EDB_SPAN("service.admit");
    EDB_COUNT("service.submitted", jobs.size());
    const auto now = Clock::now();
    std::vector<std::pair<std::size_t, Error>> rejected;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Counted before the lock drops: the serve thread may complete a job
      // at once, and stats() must never see completed > submitted.
      submitted_ += jobs.size();
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (auto why = refuse(jobs[i].query.tenant)) {
          if (why->code == ErrorCode::kResourceExhausted) ++shed_;
          rejected.emplace_back(i, std::move(*why));
        } else {
          queue_.push_back(Queued{std::move(jobs[i]), now});
        }
      }
      admitted_ += jobs.size() - rejected.size();
      completed_ += rejected.size();
      depth_.set(static_cast<std::int64_t>(queue_.size()));
    }
    if (rejected.size() < jobs.size()) wake_.notify_one();
    for (auto& [i, error] : rejected) {
      count_service_error(error.code);
      if (error.code == ErrorCode::kResourceExhausted) {
        tenants_.count_shed(jobs[i].query.tenant);
      }
      reject(jobs[i].route, std::move(error));
    }
  }

  void shutdown(bool drain) {
    // One shutdown at a time: a second caller finds the thread joined.
    std::lock_guard<std::mutex> once(shutdown_mutex_);
    std::deque<Queued> dropped;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      accepting_ = false;
      stopping_ = true;
      if (!drain) {
        core_.cancel();
        dropped.swap(queue_);
        completed_ += dropped.size();
        depth_.set(0);
      }
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
    if (dropped.empty()) return;
    std::vector<Route> routes;
    std::vector<Expected<TuningResult>> results;
    for (Queued& q : dropped) {
      count_service_error(ErrorCode::kCancelled);
      routes.push_back(std::move(q.job.route));
      results.emplace_back(make_error(ErrorCode::kCancelled,
                                      "service shut down before dispatch"));
    }
    complete_(routes, results);
  }

  ServiceStats stats() const {
    ServiceStats out;
    out.cache = core_.cache_stats();
    std::lock_guard<std::mutex> lock(mutex_);
    out.planner = planner_;
    out.submitted = submitted_;
    out.admitted = admitted_;
    out.completed = completed_;
    out.in_flight = submitted_ - completed_;
    out.shed = shed_;
    return out;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Queued {
    Job job;
    Clock::time_point admitted;
  };

  // The admission chain for one job; caller holds mutex_.
  std::optional<Error> refuse(std::string_view tenant) {
    if (!accepting_) {
      return make_error(ErrorCode::kUnavailable, "service shut down");
    }
    if (!bucket_.try_acquire()) {
      return make_error(ErrorCode::kResourceExhausted,
                        "admission rate limit exceeded");
    }
    if (!tenants_.try_acquire(tenant)) {
      return make_error(ErrorCode::kResourceExhausted,
                        "per-tenant rate limit exceeded");
    }
    if (max_queue_ > 0 && queue_.size() >= max_queue_) {
      return make_error(ErrorCode::kResourceExhausted, "submit queue full");
    }
    return std::nullopt;
  }

  void serve_loop() {
    for (;;) {
      std::vector<Queued> batch;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, and nothing left to drain
        const auto end = queue_.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(queue_.size(), max_batch_));
        batch.assign(std::make_move_iterator(queue_.begin()),
                     std::make_move_iterator(end));
        queue_.erase(queue_.begin(), end);
        depth_.set(static_cast<std::int64_t>(queue_.size()));
      }

      EDB_SPAN("service.batch");
      const auto start = Clock::now();
      std::vector<TuningQuery> queries;
      std::vector<Route> routes;
      queries.reserve(batch.size());
      routes.reserve(batch.size());
      for (Queued& q : batch) {
        queries.push_back(std::move(q.job.query));
        routes.push_back(std::move(q.job.route));
      }
      auto results = core_.serve(queries);

      const auto done = Clock::now();
      for (const Queued& q : batch) {
        latency_.record(seconds(done - q.admitted));
        queue_wait_.record(seconds(start - q.admitted));
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        planner_ = core_.planner_stats();
        completed_ += batch.size();
      }
      EDB_COUNT("service.completed", batch.size());
      complete_(routes, results);
    }
  }

  static double seconds(Clock::duration elapsed) {
    return std::chrono::duration<double>(elapsed).count();
  }

  ServiceCore core_;
  const std::size_t max_batch_;
  const std::size_t max_queue_;
  TokenBucket bucket_;
  TenantLimiter tenants_;
  const Complete complete_;

  // Process-wide registry handles, looked up once per dispatcher:
  // benches and tuning_serverd read them.
  obs::Gauge& depth_ = obs::Registry::global().gauge("service.queue.depth");
  obs::Histogram& latency_ =
      obs::Registry::global().histogram("service.latency");
  obs::Histogram& queue_wait_ =
      obs::Registry::global().histogram("service.queue_wait");

  // Queue, lifecycle flags and counts.
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Queued> queue_;
  bool accepting_ = true;
  bool stopping_ = false;
  std::size_t submitted_ = 0;
  std::size_t admitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t shed_ = 0;
  PlannerStats planner_;

  std::mutex shutdown_mutex_;
  std::thread thread_;  // last: it runs serve_loop over everything above
};

}  // namespace edb::service
