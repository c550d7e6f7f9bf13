#include "engine/fan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/obs.h"
#include "util/fault.h"

namespace edb::engine {

// Observability (obs/obs.h): every batch runs inside an "engine.fan"
// span, counts its jobs, and maintains an "engine.fan.pending" gauge that
// decays to 0 as slots complete — queue depth for dashboards, with the
// gauge max recording the largest batch.  Per-job "engine.job" spans time
// each slot on the thread that ran it while tracing is on.

namespace {

// The "engine.job" injection site with its bounded deterministic
// retry-with-backoff policy (util/fault.h, DESIGN.md §10).  The fault
// decision keys on the job *index* — the stable identity within a batch
// (fan results are invariant under width, and so is the injected fault
// pattern) — and the attempt counter re-rolls it, so the retry ladder
// converges identically on every run:
//
//   kFail  — transient worker error: back off (a small deterministic
//            sleep) and retry with attempt + 1.
//   kStall — sleep the configured duration, then run normally.
//   kCrash — the execution is lost mid-job: charge one wasted execution
//            (jobs are deterministic, so the re-run writes the same
//            bits into the slot) and retry.
//
// Retries are bounded by fault::kMaxAttempts; on exhaustion the job runs
// anyway — a fan slot must always fill, so fault exhaustion degrades to
// success-with-latency, never a hole in the batch.  Relaxing the
// "exactly once" contract this way is observable only through timing:
// slot contents stay bit-identical because re-execution is idempotent by
// the fan determinism contract.
void fault_backoff(std::uint32_t attempt) {
  std::this_thread::sleep_for(std::chrono::microseconds(50u << attempt));
}

void run_with_faults(std::size_t i,
                     const std::function<void(std::size_t)>& fn) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    const fault::Action a = fault::inject("engine.job", i, attempt);
    if (a.kind == fault::Kind::kStall) {
      EDB_COUNT("engine.job.stalls", 1);
      fault::apply_stall(a);
    } else if (a.kind == fault::Kind::kFail ||
               a.kind == fault::Kind::kCrash) {
      EDB_COUNT("engine.job.faults", 1);
      if (attempt + 1 < fault::kMaxAttempts) {
        if (a.kind == fault::Kind::kCrash) fn(i);  // the lost execution
        fault_backoff(attempt);
        EDB_COUNT("engine.job.retries", 1);
        continue;
      }
    }
    break;
  }
  fn(i);
}

}  // namespace

// One run() call.  It lives on the caller's stack and is published to the
// workers until every index is claimed.
struct Fan::Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  bool faults = false;  // a dormant plan costs one flag read per batch
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
};

Fan::Fan(int width) {
  if (width <= 0) width = hardware_threads();
  workers_.reserve(static_cast<std::size_t>(width - 1));
  for (int i = 0; i < width - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Fan::~Fan() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

int Fan::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void Fan::drain(Batch& batch) {
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1);
    if (i >= batch.n) return;
    try {
      EDB_SPAN("engine.job");
      if (batch.faults) {
        run_with_faults(i, *batch.fn);
      } else {
        (*batch.fn)(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.error_mutex);
      batch.errors.emplace_back(i, std::current_exception());
    }
    // A job that threw has left the batch too.
    EDB_GAUGE_ADD("engine.fan.pending", -1);
  }
}

void Fan::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  EDB_SPAN("engine.fan");
  EDB_COUNT("engine.fan.batches", 1);
  EDB_COUNT("engine.fan.jobs", n);
  EDB_GAUGE_ADD("engine.fan.pending", static_cast<std::int64_t>(n));
  if (n == 0) return;

  Batch batch;
  batch.fn = &fn;
  batch.n = n;
  batch.faults = fault::active();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &batch;
    ++batch_seq_;
  }
  wake_.notify_all();

  // The calling thread is one of the compute threads.
  drain(batch);

  // Unpublish, then wait until every worker has left the batch: a worker
  // that joined may still be inside a job after all indices are claimed,
  // and `batch` lives on this stack frame.  No worker can join once the
  // batch is unpublished, so no visitor means every job has finished.
  std::unique_lock<std::mutex> lock(mutex_);
  batch_ = nullptr;
  idle_.wait(lock, [&] { return visitors_ == 0; });
  lock.unlock();

  if (!batch.errors.empty()) {
    const auto first = std::min_element(
        batch.errors.begin(), batch.errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }
}

void Fan::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stopping_ || (batch_ != nullptr && batch_seq_ != seen);
      });
      if (stopping_) return;
      batch = batch_;
      seen = batch_seq_;
      ++visitors_;
    }
    drain(*batch);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --visitors_;
    }
    idle_.notify_all();
  }
}

}  // namespace edb::engine
