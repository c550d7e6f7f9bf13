#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace edb {
namespace {

TEST(ThreadPoolTest, ConstructAndShutdownIdle) {
  // Workers must start and join cleanly without ever seeing a batch.
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
  }
}

TEST(ThreadPoolTest, ZeroPicksHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 100;
  std::vector<std::atomic<int>> counts(kTasks);
  pool.parallel_for(kTasks, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesOwnSlots) {
  ThreadPool pool(3);
  std::vector<std::size_t> out(257, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, EmptyBatchIsANoop) {
  for (int threads : {1, 2}) {
    ThreadPool pool(threads);
    pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPoolTest, LowestIndexedExceptionPropagates) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(16, [&](std::size_t i) {
      executed.fetch_add(1);
      if (i == 3 || i == 11) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected the captured exception to be rethrown";
  } catch (const std::runtime_error& e) {
    // Deterministic: the lowest index wins regardless of completion
    // order, and the batch still ran to completion first.
    EXPECT_STREQ(e.what(), "task 3");
  }
  EXPECT_EQ(executed.load(), 16);
}

TEST(ThreadPoolTest, UsableAfterAnExceptionalBatch) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   1, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);

  std::atomic<int> ok{0};
  pool.parallel_for(5, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 5);
}

}  // namespace
}  // namespace edb
