#include "engine/fan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"

namespace edb::engine {
namespace {

std::vector<std::string> squares(Fan& fan, std::size_t n) {
  std::vector<std::string> slots(n);
  fan.run(n, [&](std::size_t i) { slots[i] = "job-" + std::to_string(i * i); });
  return slots;
}

TEST(Fan, SlotsIdenticalAtAnyWidth) {
  Fan one(1);
  Fan four(4);
  const auto a = squares(one, 17);
  const auto b = squares(four, 17);
  ASSERT_EQ(a.size(), 17u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[3], "job-9");
}

TEST(Fan, RunsEveryJobExactlyOnce) {
  std::vector<std::atomic<int>> hits(103);
  Fan fan(8);
  fan.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

TEST(Fan, EmptyBatchRunsNoJobButCountsTheBatch) {
  for (int width : {1, 2}) {
    Fan fan(width);
    const std::uint64_t batches = counter("engine.fan.batches");
    const std::uint64_t jobs = counter("engine.fan.jobs");
    fan.run(0, [](std::size_t) { FAIL() << "must not be called"; });
    EXPECT_EQ(counter("engine.fan.batches"), batches + 1);
    EXPECT_EQ(counter("engine.fan.jobs"), jobs);
  }
}

TEST(Fan, PendingGaugeSettlesWhenJobsThrow) {
  // Every job leaves the engine.fan.pending gauge, whether it returns or
  // throws; every batch in this binary settles, so the gauge reads 0.
  obs::Gauge& pending = obs::Registry::global().gauge("engine.fan.pending");
  Fan fan(2);
  EXPECT_THROW(fan.run(8,
                       [](std::size_t i) {
                         if (i == 2 || i == 5) throw std::runtime_error("job");
                       }),
               std::runtime_error);
  EXPECT_EQ(pending.value(), 0);
}

TEST(Fan, WidthOneRunsOnTheCallingThreadInIndexOrder) {
  // The sequential reference every other width reproduces.
  Fan fan(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  fan.run(9, [&](std::size_t i) {
    on_caller = on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Fan, JobSeedsAreStableAndDecorrelated) {
  // Pure in (base, key): same inputs, same stream.
  EXPECT_EQ(job_seed(1, 42), job_seed(1, 42));
  // Distinct in every argument.
  EXPECT_NE(job_seed(1, 42), job_seed(1, 43));
  EXPECT_NE(job_seed(1, 42), job_seed(2, 42));
  // Consecutive keys give well-mixed (not consecutive) seeds.
  const std::uint64_t a = job_seed(7, 0);
  const std::uint64_t b = job_seed(7, 1);
  EXPECT_GT((a > b ? a - b : b - a), 1u << 20);
}

std::vector<std::uint64_t> seeded_slots(Fan& fan) {
  std::vector<std::uint64_t> slots(64, 0);
  fan.run(slots.size(), [&](std::size_t i) {
    slots[i] = job_seed(0xfa17ULL, static_cast<std::uint64_t>(i) + 1);
  });
  return slots;
}

TEST(Fan, FaultLadderFillsIdenticalSlotsAtBothWidths) {
  // The engine.job retry ladder (fail -> backoff, crash -> re-run, stall)
  // is one code path for every width: both runs must fill every slot
  // with the fault-free values.
  Fan one(1);
  Fan four(4);
  const auto clean = seeded_slots(one);

  const std::uint64_t faults_before = counter("engine.job.faults");
  const std::uint64_t retries_before = counter("engine.job.retries");
  fault::install(
      fault::FaultPlan::parse(
          "seed=3;engine.job:fail=0.3,crash=0.1,stall=0.05@0.1ms")
          .take());
  const auto narrow = seeded_slots(one);
  const auto wide = seeded_slots(four);
  fault::uninstall();

  EXPECT_EQ(narrow, clean);
  EXPECT_EQ(wide, clean);
  for (std::uint64_t v : clean) EXPECT_NE(v, 0u);
  EXPECT_GT(counter("engine.job.faults"), faults_before);
  EXPECT_GT(counter("engine.job.retries"), retries_before);
}

}  // namespace
}  // namespace edb::engine
