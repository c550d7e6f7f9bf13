// The serving pipeline's resilience contract (DESIGN.md §10): deadlines
// trip deterministically, admission sheds at the front door, transient
// miss-path failures are served down the degradation ladder, transient
// codes never poison the negative cache, shutdown() is orderly under
// every drain mode, and the whole fault story replays byte-identically
// at any submitter thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "service/service.h"
#include "util/fault.h"

namespace edb::service {
namespace {

ServiceOptions small_opts() {
  ServiceOptions opts;
  opts.engine = core::EngineOptions{.threads = 2, .parallel = true};
  opts.cache_capacity = 64;
  opts.cache_shards = 4;
  return opts;
}

TuningQuery xmac_query(double l_max = 6.0) {
  TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  q.scenario.requirements.l_max = l_max;
  q.protocols = {"X-MAC"};
  return q;
}

// Injection state is process-global: every test must leave it clean.
class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::uninstall(); }
};

void install_plan(const char* spec) {
  fault::install(fault::FaultPlan::parse(spec).take());
}

// -------------------------------------------------------- deadlines --

TEST_F(ResilienceTest, TinyEvalBudgetTripsDeadlineDeterministically) {
  TuningService service(small_opts());
  TuningQuery q = xmac_query();
  q.options.eval_budget = 10;  // stage 1 alone costs thousands of evals
  const auto deadline_before =
      service_error_count(ErrorCode::kDeadlineExceeded);
  auto r = service.query(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quality, ResultQuality::kCoarse);
  // Deterministic: the budget counts oracle evals, not wall time, so the
  // same query trips the same way every time — the coarse answer is never
  // cached, so the second query trips again and lands on the same bits.
  auto again = service.query(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->quality, ResultQuality::kCoarse);
  EXPECT_EQ(again->per_protocol[0].outcome->nbs.energy,
            r->per_protocol[0].outcome->nbs.energy);
  EXPECT_EQ(again->per_protocol[0].outcome->nbs.latency,
            r->per_protocol[0].outcome->nbs.latency);
  EXPECT_EQ(service.stats().planner.transient_failures, 2u);
  EXPECT_EQ(service.stats().planner.degraded_coarse, 2u);
  EXPECT_EQ(service_error_count(ErrorCode::kDeadlineExceeded),
            deadline_before + 2);
}

TEST_F(ResilienceTest, DeadlineBlowOutIsServedCoarseWhenDegradationIsOn) {
  TuningService service(small_opts());
  TuningQuery q = xmac_query();
  q.options.eval_budget = 10;
  auto r = service.query(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quality, ResultQuality::kCoarse);
  ASSERT_EQ(r->per_protocol.size(), 1u);
  EXPECT_TRUE(r->per_protocol[0].feasible());
  EXPECT_EQ(service.stats().planner.degraded_coarse, 1u);

  // The coarse answer must NOT have been cached: dropping the budget
  // yields the full-quality solve, not yesterday's quick answer.
  TuningQuery full = xmac_query();
  auto r2 = service.query(full);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->quality, ResultQuality::kFull);
  // And the coarse grid answer is genuinely coarser than the full
  // pipeline's polished point (equal would mean the ladder is a no-op).
  EXPECT_NE(r->per_protocol[0].outcome->nbs.energy,
            r2->per_protocol[0].outcome->nbs.energy);
}

TEST_F(ResilienceTest, ComfortableEvalBudgetStaysFullQuality) {
  TuningService service(small_opts());
  auto reference = service.query(xmac_query(3.0));
  ASSERT_TRUE(reference.ok());

  TuningService fresh(small_opts());
  TuningQuery q = xmac_query(3.0);
  q.options.eval_budget = 100'000'000;
  auto r = fresh.query(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quality, ResultQuality::kFull);
  // An unexercised budget is invisible: bit-identical to the unbounded
  // solve (the budget is deliberately not part of the cache key).
  EXPECT_EQ(r->per_protocol[0].outcome->nbs.energy,
            reference->per_protocol[0].outcome->nbs.energy);
  EXPECT_EQ(r->per_protocol[0].outcome->nbs.latency,
            reference->per_protocol[0].outcome->nbs.latency);
}

// -------------------------------------------------------- admission --

TEST_F(ResilienceTest, StarvedTokenBucketShedsAfterItsBurst) {
  ServiceOptions opts = small_opts();
  opts.resilience.rate_limit_qps = 1e-9;  // refill ~never
  opts.resilience.rate_burst = 1;
  TuningService service(opts);
  Ticket first = service.submit(xmac_query());
  Ticket second = service.submit(xmac_query());
  auto r1 = service.wait(first);
  auto r2 = service.wait(second);
  EXPECT_TRUE(r1.ok());
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().code, ErrorCode::kResourceExhausted);
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(ResilienceTest, BoundedQueueShedsWithinOneBatchSubmit) {
  ServiceOptions opts = small_opts();
  opts.resilience.max_queue = 1;
  TuningService service(opts);
  // query_batch enqueues the whole vector under one lock, so the
  // dispatcher cannot drain between admissions: with a bound of 1 the
  // outcome is deterministic — first admitted, rest shed.
  std::vector<TuningQuery> qs = {xmac_query(3.0), xmac_query(4.0),
                                 xmac_query(5.0)};
  auto results = service.query_batch(qs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_FALSE(results[i].ok()) << i;
    EXPECT_EQ(results[i].error().code, ErrorCode::kResourceExhausted) << i;
  }
  EXPECT_EQ(service.stats().shed, 2u);
}

TEST_F(ResilienceTest, UnconfiguredTenantShedsAddNoRegistryEntries) {
  // Tenant names arrive from clients (wire HELLO), so a shed must not
  // mint a registry entry per name: only service.shed counts these.
  ServiceOptions opts = small_opts();
  opts.resilience.rate_limit_qps = 1e-9;  // refill ~never
  opts.resilience.rate_burst = 1;
  TuningService service(opts);
  ASSERT_TRUE(service.query(xmac_query()).ok());  // spends the burst

  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t shed_before = registry.counter("service.shed").value();
  const std::size_t entries_before = registry.snapshot().entries.size();
  constexpr std::size_t kTenants = 1000;
  std::vector<TuningQuery> qs(kTenants, xmac_query());
  for (std::size_t i = 0; i < kTenants; ++i) {
    qs[i].tenant = "hostile-" + std::to_string(i);
  }
  for (const auto& r : service.query_batch(qs)) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kResourceExhausted);
  }
  EXPECT_EQ(service.stats().shed, kTenants);
  EXPECT_EQ(registry.counter("service.shed").value(), shed_before + kTenants);
  EXPECT_LE(registry.snapshot().entries.size(), entries_before + 4);
}

// ----------------------------------------------- degradation ladder --

TEST_F(ResilienceTest, MissPathFaultIsServedStaleFromTheCache) {
  TuningService service(small_opts());
  auto first = service.query(xmac_query());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->quality, ResultQuality::kFull);

  // Every lookup is suppressed and every solve discarded: the only way
  // to answer is the ladder's stale re-read of the full-quality entry.
  install_plan("cache.lookup:fail=1;planner.solve:fail=1");
  auto r = service.query(xmac_query());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quality, ResultQuality::kStale);
  ASSERT_TRUE(r->per_protocol[0].feasible());
  EXPECT_EQ(r->per_protocol[0].outcome->nbs.energy,
            first->per_protocol[0].outcome->nbs.energy);
  EXPECT_EQ(r->per_protocol[0].outcome->nbs.latency,
            first->per_protocol[0].outcome->nbs.latency);
  EXPECT_GE(service.stats().planner.degraded_stale, 1u);
}

TEST_F(ResilienceTest, ColdMissPathFaultIsServedCoarse) {
  TuningService service(small_opts());
  install_plan("planner.solve:fail=1");
  auto r = service.query(xmac_query());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quality, ResultQuality::kCoarse);
  ASSERT_EQ(r->per_protocol.size(), 1u);
  EXPECT_TRUE(r->per_protocol[0].feasible());
  EXPECT_EQ(r->recommended, 0);
  EXPECT_GE(service.stats().planner.degraded_coarse, 1u);
}

// ----------------------------------------------------- negative cache --

TEST_F(ResilienceTest, TransientFailuresAreNeverNegativelyCached) {
  TuningService service(small_opts());
  const auto unavailable_before =
      service_error_count(ErrorCode::kUnavailable);
  install_plan("planner.solve:fail=1");
  auto r = service.query(xmac_query());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quality, ResultQuality::kCoarse);
  EXPECT_EQ(service.stats().planner.transient_failures, 1u);
  EXPECT_EQ(service_error_count(ErrorCode::kUnavailable),
            unavailable_before + 1);

  // Heal the fault: the key must solve fresh, not replay the failure or
  // its coarse stand-in.
  fault::uninstall();
  const auto solved_before = service.stats().planner.solved;
  auto healed = service.query(xmac_query());
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->quality, ResultQuality::kFull);
  EXPECT_TRUE(healed->per_protocol[0].feasible());
  EXPECT_EQ(service.stats().planner.solved, solved_before + 1);
  EXPECT_EQ(service.stats().cache.negative_hits, 0u);
  EXPECT_EQ(service.stats().cache.hits, 0u);
}

TEST_F(ResilienceTest, DeterministicInfeasibilityIsStillNegativelyCached) {
  TuningService service(small_opts());
  // No protocol can meet a 1 ms delay bound: deterministic kInfeasible.
  auto first = service.query(xmac_query(0.001));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->per_protocol[0].feasible());
  EXPECT_EQ(first->per_protocol[0].infeasible_code, ErrorCode::kInfeasible);
  const auto solved_before = service.stats().planner.solved;
  auto second = service.query(xmac_query(0.001));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->per_protocol[0].feasible());
  EXPECT_EQ(service.stats().planner.solved, solved_before);  // cache hit
  EXPECT_GE(service.stats().cache.negative_hits, 1u);
}

// ------------------------------------------------------ error counters --

TEST_F(ResilienceTest, PerCodeErrorCountersTickOnTheRegistry) {
  const auto shed_before =
      service_error_count(ErrorCode::kResourceExhausted);
  ServiceOptions opts = small_opts();
  opts.resilience.rate_limit_qps = 1e-9;
  opts.resilience.rate_burst = 1;
  TuningService service(opts);
  service.query(xmac_query());      // admitted
  auto r = service.query(xmac_query());  // shed
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(service_error_count(ErrorCode::kResourceExhausted),
            shed_before + 1);
}

// ------------------------------------------------------------ shutdown --

TEST_F(ResilienceTest, ShutdownDrainFinishesQueuedWork) {
  TuningService service(small_opts());
  std::vector<Ticket> tickets;
  for (double l : {3.0, 4.0, 5.0}) tickets.push_back(service.submit(xmac_query(l)));
  service.shutdown(/*drain=*/true);
  for (const auto& t : tickets) {
    auto r = service.wait(t);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->quality, ResultQuality::kFull);
  }
  // Post-shutdown submissions come back as immediately-failed tickets,
  // not aborts.
  Ticket late = service.submit(xmac_query());
  ASSERT_TRUE(late.valid());
  EXPECT_TRUE(service.poll(late));
  auto r = service.wait(late);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kUnavailable);
  // Idempotent, and the destructor after an explicit shutdown is a no-op.
  service.shutdown(/*drain=*/true);
  service.shutdown(/*drain=*/false);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST_F(ResilienceTest, ShutdownNoDrainCancelsQueuedWork) {
  ServiceOptions opts = small_opts();
  opts.max_batch = 1;  // one query per dispatch: a real queue builds up
  TuningService service(opts);
  // Slow every dispatch down so the queue is non-empty at shutdown.
  install_plan("service.dispatch:stall=1@50ms");
  std::vector<Ticket> tickets;
  for (double l : {3.0, 4.0, 5.0, 6.0}) {
    tickets.push_back(service.submit(xmac_query(l)));
  }
  service.shutdown(/*drain=*/false);
  std::size_t cancelled = 0;
  for (const auto& t : tickets) {
    EXPECT_TRUE(service.poll(t));  // shutdown() blocked until all settled
    auto r = service.wait(t);
    if (!r.ok()) {
      // Queued work is failed with kCancelled; the in-flight solve may
      // also have been cancelled cooperatively mid-pipeline.
      EXPECT_EQ(r.error().code, ErrorCode::kCancelled);
      ++cancelled;
    }
  }
  EXPECT_GE(cancelled, 1u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST_F(ResilienceTest, RacingSubmittersAreExcludedByShutdown) {
  // The documented pattern for tearing down under load: shutdown() first
  // — racing submitters then get failed tickets — and only then destroy.
  auto service = std::make_unique<TuningService>(small_opts());
  std::atomic<bool> go{false};
  std::vector<Expected<TuningResult>> seen;
  std::thread submitter([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < 50; ++i) {
      seen.push_back(service->query(xmac_query()));
    }
  });
  go.store(true, std::memory_order_release);
  service->shutdown(/*drain=*/false);
  submitter.join();
  service.reset();  // destruction after the submitter stopped: no race
  std::size_t served = 0, rejected = 0;
  for (const auto& r : seen) {
    if (r.ok()) {
      ++served;
    } else {
      ASSERT_TRUE(r.error().code == ErrorCode::kUnavailable ||
                  r.error().code == ErrorCode::kCancelled)
          << r.error().to_string();
      ++rejected;
    }
  }
  EXPECT_EQ(served + rejected, 50u);
  EXPECT_GE(rejected, 1u);  // shutdown landed while the loop was running
}

// -------------------------------------------------------- determinism --

std::string outcome_stream(int clients, const char* plan) {
  ServiceOptions opts = small_opts();
  TuningService service(opts);
  std::vector<TuningQuery> mix;
  for (int rep = 0; rep < 2; ++rep) {
    for (double l : {2.0, 2.8, 3.6, 4.4, 5.2, 6.0}) {
      mix.push_back(xmac_query(l));
    }
  }
  install_plan(plan);
  std::vector<Ticket> tickets(mix.size());
  {
    std::vector<std::thread> pool;
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < mix.size();
             i += static_cast<std::size_t>(clients)) {
          tickets[i] = service.submit(mix[i]);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  std::string stream;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    auto r = service.wait(tickets[i]);
    stream += std::to_string(i) + ":";
    if (!r.ok()) {
      stream += std::string("err=") + error_code_name(r.error().code);
    } else {
      stream += quality_name(r->quality);
      for (const auto& po : r->per_protocol) {
        if (po.feasible()) {
          std::uint64_t e = 0, lat = 0;
          std::memcpy(&e, &po.outcome->nbs.energy, sizeof(e));
          std::memcpy(&lat, &po.outcome->nbs.latency, sizeof(lat));
          stream += ":" + std::to_string(e) + "/" + std::to_string(lat);
        } else {
          stream += std::string(":") + error_code_name(po.infeasible_code);
        }
      }
    }
    stream += "\n";
  }
  fault::uninstall();
  return stream;
}

TEST_F(ResilienceTest, FaultedOutcomeStreamIsIdenticalAcrossClientThreads) {
  // Injection decisions key on stable identities (canonical hashes), not
  // arrival order, so the same plan must replay the same per-query
  // outcome — code, rung and exact result bits — whether one client
  // submits the mix or four race.
  const char* plan =
      "seed=11;planner.solve:fail=0.6;cache.lookup:fail=0.6;"
      "engine.job:fail=0.1";
  const std::string one = outcome_stream(1, plan);
  const std::string four = outcome_stream(4, plan);
  EXPECT_EQ(one, four);
  // And the plan genuinely bit: at these rates some slot degraded.
  EXPECT_NE(one.find("coarse"), std::string::npos);
}

}  // namespace
}  // namespace edb::service
