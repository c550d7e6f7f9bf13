#include "util/thread_pool.h"

#include <algorithm>

namespace edb {

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = hardware_threads();
  threads = std::max(1, threads);
  // The parallel_for caller drains its own batch, so it is one of the
  // compute threads: spawn threads - 1 workers to get exactly `threads` of
  // concurrency without oversubscribing.  A size-1 pool has no workers.
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::drain(Batch& batch) {
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1);
    if (i >= batch.n) return;
    try {
      (*batch.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.error_mutex);
      batch.errors.emplace_back(i, std::current_exception());
    }
    batch.done.fetch_add(1);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  Batch batch;
  batch.fn = &fn;
  batch.n = n;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &batch;
    ++batch_seq_;
  }
  wake_.notify_all();

  // The calling thread participates in its own batch.
  drain(batch);

  // Unpublish, then wait until every worker has left the batch: a worker
  // that grabbed the batch pointer may still be inside drain() even after
  // all indices are claimed, and `batch` lives on this stack frame.
  std::unique_lock<std::mutex> lock(mutex_);
  batch_ = nullptr;
  idle_.wait(lock,
             [&] { return visitors_ == 0 && batch.done.load() == n; });
  lock.unlock();

  if (!batch.errors.empty()) {
    auto first = std::min_element(
        batch.errors.begin(), batch.errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }
}

void ThreadPool::worker_loop() {
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

}  // namespace edb
