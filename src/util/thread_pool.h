// Deterministic fixed-size thread pool for independent index batches.
//
// The scenario engine fans independent solves across threads.  Results must
// not depend on scheduling, so the pool is deliberately work-stealing-free:
// a batch is fn(0) .. fn(n - 1), workers claim indices from a single
// atomic counter in submission order, and every call writes only its own
// output slot.  `parallel_for` blocks until the whole batch settles, so
// callers never observe a half-finished batch, and the pool never
// interleaves two batches.
//
// The library avoids exceptions on hot paths, but std::bad_alloc and user
// code can still unwind out of a call.  A throwing call never takes down a
// worker: the batch keeps running to completion, each exception is
// captured, and the first one (by index, not by completion time — again
// deterministic) is rethrown from parallel_for on the calling thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace edb {

class ThreadPool {
 public:
  // A pool of `threads` compute threads (clamped to >= 1); 0 picks the
  // hardware concurrency.  The calling thread counts as one of them during
  // parallel_for, so `threads - 1` workers are spawned.
  explicit ThreadPool(int threads = 0);
  // Joins all workers.  Must not be called while parallel_for is in
  // flight on another thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Compute concurrency of a parallel_for: the workers plus the caller.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(0) .. fn(n - 1) and blocks until every call has finished.
  // The calling thread participates, so a size-1 pool runs the batch
  // itself in index order and a batch of one costs no handoff.  Rethrows
  // the lowest-indexed captured exception after the whole batch has
  // settled.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  static int hardware_threads();

 private:
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex error_mutex;
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  };

  void worker_loop();
  static void drain(Batch& batch);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;  // workers: new batch or shutdown
  std::condition_variable idle_;  // caller: all workers left the batch
  Batch* batch_ = nullptr;        // guarded by mutex_
  std::uint64_t batch_seq_ = 0;   // bumped per batch so workers never rejoin
  int visitors_ = 0;              // workers currently inside drain()
  bool stopping_ = false;
};

}  // namespace edb
