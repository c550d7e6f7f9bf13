// Generic deterministic fan-out: the job-batch primitive every parallel
// workload in the system runs on.
//
// A fan is a batch of index-addressed jobs.  Each job owns exactly one
// output slot; the fan only decides *when* a slot is computed, never
// *what* goes into it, so a run at any width produces bit-identical
// results.  The discrete-event simulator (sim/campaign.h) and the
// analytic scenario engine (core/engine.h) both fan through this class.
//
// The contract, in full:
//
//   ordering — after run(n, fn), every slot fn(i) writes for i in [0, n)
//              is filled, regardless of width or completion order.
//   width    — Fan(w) has w compute threads: w - 1 workers it owns plus
//              the caller of run().  They claim indices from one atomic
//              counter in submission order; there is no work stealing.
//              w = 0 picks the hardware threads.  Fan(1) spawns no
//              worker and runs every job on the calling thread in index
//              order — the sequential reference every other width
//              reproduces bit-for-bit.
//   errors   — a throwing job never takes down a thread: the batch runs
//              to completion, and the exception of the lowest index (not
//              the first to complete) is rethrown from run() on the
//              calling thread.
//   seeds    — jobs that need randomness derive their stream from
//              job_seed(base, key): a splitmix64 mix of a caller base
//              and a *stable job identity* (never the submission index,
//              so shuffling a batch cannot change any job's stream).
//
// Callers that aggregate (stats accumulators, counters) fold the filled
// slots in index order after run() returns, so reductions are as
// deterministic as the slots themselves.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace edb::engine {

class Fan {
 public:
  explicit Fan(int width);
  // Joins the workers.  Must not run while run() is in flight.
  ~Fan();

  Fan(const Fan&) = delete;
  Fan& operator=(const Fan&) = delete;

  // Compute threads of a run(): the workers plus the caller.
  int width() const { return static_cast<int>(workers_.size()) + 1; }

  static int hardware_threads();

  // Invokes fn(i) for every i in [0, n) and blocks until all have
  // finished (an injected engine.job crash may run a job twice; slots
  // stay identical because jobs are deterministic).  Never interleaves
  // two batches.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Batch;

  void worker_loop();
  static void drain(Batch& batch);

  std::mutex mutex_;
  std::condition_variable wake_;  // workers: new batch or shutdown
  std::condition_variable idle_;  // run(): all workers left the batch
  Batch* batch_ = nullptr;        // guarded by mutex_
  std::uint64_t batch_seq_ = 0;   // bumped per batch so workers never rejoin
  int visitors_ = 0;              // workers currently inside drain()
  bool stopping_ = false;
  std::vector<std::thread> workers_;  // last: the threads use the above
};

// Per-job seed stream derivation: a splitmix64 mix of the caller's base
// seed and the job's stable identity key.  Callers must key on content
// (scenario seed, replication number), never on the submission index —
// that is what keeps fan results invariant under batch shuffling.
constexpr std::uint64_t job_seed(std::uint64_t base, std::uint64_t key) {
  return splitmix64(splitmix64(base) ^ key);
}

}  // namespace edb::engine
