#include "engine/fan.h"

#include <chrono>
#include <thread>

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
// Retries are bounded by kMaxFaultAttempts; on exhaustion the job runs
// anyway — a fan slot must always fill, so fault exhaustion degrades to
// success-with-latency, never a hole in the batch.  Relaxing the
// "exactly once" contract this way is observable only through timing:
// slot contents stay bit-identical because re-execution is idempotent by
// the fan determinism contract.
constexpr std::uint32_t kMaxFaultAttempts = 4;

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
}

}  // namespace

void Fan::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  EDB_SPAN("engine.fan");
  EDB_COUNT("engine.fan.batches", 1);
  EDB_COUNT("engine.fan.jobs", n);
  EDB_GAUGE_ADD("engine.fan.pending", static_cast<std::int64_t>(n));
  // A dormant plan costs one flag read per batch, not per job.
  const bool faults = fault::active();
  pool_.parallel_for(n, [&](std::size_t i) {
    EDB_SPAN("engine.job");
    if (faults) {
      run_with_faults(i, fn);
    } else {
      fn(i);
    }
    EDB_GAUGE_ADD("engine.fan.pending", -1);
  });
}

}  // namespace edb::engine
