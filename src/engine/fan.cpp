#include "engine/fan.h"

#include <thread>

#include "obs/obs.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace edb::engine {

// Observability (obs/obs.h): every executor wraps the batch in an
// "engine.fan" span, counts jobs, and maintains an "engine.fan.pending"
// gauge that decays to 0 as slots complete — queue depth for dashboards,
// with the gauge max recording the largest batch.  Per-job "engine.job"
// spans time each slot on the thread that ran it while tracing is on.

namespace {

template <typename Run>
void run_instrumented(std::size_t n,
                      const std::function<void(std::size_t)>& fn, Run run) {
  EDB_SPAN("engine.fan");
  EDB_COUNT("engine.fan.batches", 1);
  EDB_COUNT("engine.fan.jobs", n);
  EDB_GAUGE_ADD("engine.fan.pending", static_cast<std::int64_t>(n));
  run(n, std::function<void(std::size_t)>([&](std::size_t i) {
        EDB_SPAN("engine.job");
        fn(i);
        EDB_GAUGE_ADD("engine.fan.pending", -1);
      }));
}

// The "engine.job" injection site with its bounded deterministic
// retry-with-backoff policy (util/fault.h, DESIGN.md §10).  The fault
// decision keys on the job *index* — the stable identity within a batch
// (fan results are invariant under executor and thread count, and so is
// the injected fault pattern) — and the attempt counter re-rolls it, so
// the retry ladder converges identically on every run:
//
//   kFail  — transient worker error: back off (a small deterministic
//            sleep) and retry with attempt + 1.
//   kStall — sleep the configured duration, then run normally.
//   kCrash — the execution is lost mid-job: charge one wasted execution
//            (jobs are deterministic, so the re-run writes the same
//            bits into the slot) and retry.
//
// Retries are bounded by kMaxFaultAttempts; on exhaustion the job runs
// anyway — a fan slot must always fill, so fault exhaustion degrades to
// success-with-latency, never a hole in the batch.  Relaxing the
// "exactly once" executor contract this way is observable only through
// timing: slot contents stay bit-identical because re-execution is
// idempotent by the fan determinism contract.
constexpr std::uint32_t kMaxFaultAttempts = 4;

void fault_backoff(std::uint32_t attempt) {
  std::this_thread::sleep_for(std::chrono::microseconds(50u << attempt));
}

std::function<void(std::size_t)> with_faults(
    const std::function<void(std::size_t)>& fn) {
  return [&fn](std::size_t i) {
    for (std::uint32_t attempt = 0;; ++attempt) {
      const fault::Action a = fault::inject("engine.job", i, attempt);
      if (a.kind == fault::Kind::kStall) {
        EDB_COUNT("engine.job.stalls", 1);
        fault::apply_stall(a);
      } else if (a.kind == fault::Kind::kFail ||
                 a.kind == fault::Kind::kCrash) {
        EDB_COUNT("engine.job.faults", 1);
        if (attempt + 1 < kMaxFaultAttempts) {
          if (a.kind == fault::Kind::kCrash) fn(i);  // the lost execution
          fault_backoff(attempt);
          EDB_COUNT("engine.job.retries", 1);
          continue;
        }
      }
      break;
    }
    fn(i);
  };
}

}  // namespace

void SequentialExecutor::run(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  const auto loop = [](std::size_t m,
                       const std::function<void(std::size_t)>& f) {
    for (std::size_t i = 0; i < m; ++i) f(i);
  };
  // Dormant-plan fast path: no wrapper lambda is even constructed.
  if (!fault::active()) {
    run_instrumented(n, fn, loop);
    return;
  }
  const auto wrapped = with_faults(fn);
  run_instrumented(n, wrapped, loop);
}

struct ParallelExecutor::Impl {
  explicit Impl(int threads) : pool(threads) {}
  ThreadPool pool;
};

ParallelExecutor::ParallelExecutor(int threads)
    : impl_(std::make_unique<Impl>(threads)) {}

ParallelExecutor::~ParallelExecutor() = default;

void ParallelExecutor::run(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  const auto pool = [this](std::size_t m,
                           const std::function<void(std::size_t)>& f) {
    impl_->pool.parallel_for(m, f);
  };
  if (!fault::active()) {
    run_instrumented(n, fn, pool);
    return;
  }
  const auto wrapped = with_faults(fn);
  run_instrumented(n, wrapped, pool);
}

int ParallelExecutor::threads() const { return impl_->pool.size(); }

std::unique_ptr<Executor> make_executor(int threads, bool parallel) {
  if (parallel) return std::make_unique<ParallelExecutor>(threads);
  return std::make_unique<SequentialExecutor>();
}

}  // namespace edb::engine
