// The worker threads engine::Fan owns: start and join, width, slot
// writes, reuse across batches and exception propagation.  The batch
// contract on top of them (index order at width 1, exactly-once, seeds,
// the fault-retry ladder) is in engine_fan_test.cpp.
#include "engine/fan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace edb::engine {
namespace {

TEST(FanWorkers, WidthCountsTheCallerAndIdleFansShutDown) {
  // Workers must start and join cleanly without ever seeing a batch.
  for (int width : {1, 2, 4}) {
    Fan fan(width);
    EXPECT_EQ(fan.width(), width);
  }
}

TEST(FanWorkers, WidthZeroPicksTheHardwareThreads) {
  Fan fan(0);
  EXPECT_GE(fan.width(), 1);
  EXPECT_EQ(fan.width(), Fan::hardware_threads());
}

TEST(FanWorkers, JobsWriteOwnSlots) {
  Fan fan(3);
  std::vector<std::size_t> out(257, 0);
  fan.run(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(FanWorkers, ReusableAcrossBatches) {
  Fan fan(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    fan.run(8, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 80);
}

TEST(FanWorkers, LowestIndexedExceptionPropagates) {
  Fan fan(4);
  std::atomic<int> executed{0};
  try {
    fan.run(16, [&](std::size_t i) {
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

TEST(FanWorkers, UsableAfterAnExceptionalBatch) {
  Fan fan(2);
  EXPECT_THROW(
      fan.run(1, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);

  std::atomic<int> ok{0};
  fan.run(5, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 5);
}

}  // namespace
}  // namespace edb::engine
