#include "service/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/sweep.h"
#include "mac/registry.h"
#include "obs/metrics.h"

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

TEST(ServiceApiTest, SyncQueryMatchesColdRunSweepBitForBit) {
  TuningService service(small_opts());
  auto r = service.query(xmac_query());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->per_protocol.size(), 1u);
  ASSERT_TRUE(r->per_protocol[0].feasible());

  auto model =
      mac::make_model("X-MAC", core::Scenario::paper_default().context)
          .take();
  auto cold = core::run_sweep(*model,
                              core::Scenario::paper_default().requirements,
                              core::SweepKind::kLmax, {6.0});
  ASSERT_TRUE(cold.cells[0].feasible());
  const auto& served = *r->per_protocol[0].outcome;
  const auto& reference = *cold.cells[0].outcome;
  EXPECT_EQ(served.nbs.energy, reference.nbs.energy);
  EXPECT_EQ(served.nbs.latency, reference.nbs.latency);
  EXPECT_EQ(served.nash_product, reference.nash_product);
  EXPECT_EQ(served.p1.energy, reference.p1.energy);
  EXPECT_EQ(served.p2.latency, reference.p2.latency);
  EXPECT_EQ(served.nbs.x, reference.nbs.x);
}

TEST(ServiceApiTest, RepeatQueryIsServedFromTheCache) {
  TuningService service(small_opts());
  auto first = service.query(xmac_query());
  ASSERT_TRUE(first.ok());
  const auto solved_before = service.stats().planner.solved;
  auto second = service.query(xmac_query());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service.stats().planner.solved, solved_before);
  EXPECT_EQ(service.stats().cache.hits, 1u);
  EXPECT_EQ(second->per_protocol[0].outcome->nbs.energy,
            first->per_protocol[0].outcome->nbs.energy);
}

TEST(ServiceApiTest, AsyncSubmitPollWait) {
  TuningService service(small_opts());
  Ticket t = service.submit(xmac_query());
  ASSERT_TRUE(t.valid());
  auto r = service.wait(t);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(service.poll(t));  // done stays done
  // wait() is repeatable and returns the same result.
  auto again = service.wait(t);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->per_protocol[0].outcome->nbs.energy,
            r->per_protocol[0].outcome->nbs.energy);
}

TEST(ServiceApiTest, QueryBatchSeesOnePlannedBatch) {
  TuningService service(small_opts());
  std::vector<TuningQuery> qs = {xmac_query(3.0), xmac_query(4.0),
                                 xmac_query(5.0), xmac_query(4.0)};
  auto results = service.query_batch(qs);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  const auto stats = service.stats();
  // Three distinct questions, one engine job each, one in-batch
  // duplicate.
  EXPECT_EQ(stats.planner.solved, 3u);
  EXPECT_EQ(stats.planner.sweep_jobs, 3u);
  EXPECT_EQ(stats.planner.coalesced, 1u);
  EXPECT_EQ(results[1]->per_protocol[0].outcome->nbs.energy,
            results[3]->per_protocol[0].outcome->nbs.energy);
}

TEST(ServiceApiTest, ErrorsComeBackThroughTickets) {
  TuningService service(small_opts());
  TuningQuery bad = xmac_query();
  bad.protocols = {"no-such-mac"};
  auto r = service.query(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
}

TEST(ServiceApiTest, StatsTrackServing) {
  // Latency lives in the registry's process-wide histograms only.  Reset
  // both so they hold exactly this test's two serves.
  auto& reg = obs::Registry::global();
  reg.histogram("service.latency").reset();
  reg.histogram("service.queue_wait").reset();

  TuningService service(small_opts());
  service.query(xmac_query());
  service.query(xmac_query());
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.in_flight, 0u);

  const auto latency = reg.histogram("service.latency").merged();
  const auto wait = reg.histogram("service.queue_wait").merged();
  EXPECT_EQ(latency.count(), 2u);
  EXPECT_EQ(wait.count(), 2u);
  EXPECT_GT(latency.quantile(0.95), 0.0);
  EXPECT_LE(latency.quantile(0.50), latency.quantile(0.95));
  EXPECT_LE(latency.quantile(0.95), latency.quantile(0.99));
  EXPECT_LE(latency.quantile(0.99), latency.quantile(0.999));
  EXPECT_LE(wait.quantile(0.50), wait.quantile(0.99));
  // Queue wait is the admit -> batch-start share of admit -> done: a
  // first cold solve dwarfs it.
  EXPECT_LE(wait.quantile(0.50), latency.quantile(0.50));
  EXPECT_LE(wait.quantile(0.99), latency.quantile(0.99));
}

TEST(ServiceApiTest, CacheStatsEqualRegistryCounterDeltas) {
  // The cache's hit/miss/eviction/negative-hit counters ARE registry
  // metrics (service.cache.*): Stats must report exactly the registry
  // growth observed across this service's lifetime — one set of numbers,
  // not two bookkeeping systems drifting apart.
  auto& reg = obs::Registry::global();
  const auto h0 = reg.counter("service.cache.hits").value();
  const auto m0 = reg.counter("service.cache.misses").value();
  const auto e0 = reg.counter("service.cache.evictions").value();
  const auto n0 = reg.counter("service.cache.negative_hits").value();

  TuningService service(small_opts());
  service.query(xmac_query());
  service.query(xmac_query());  // repeat: one hit
  const auto cache = service.stats().cache;

  EXPECT_EQ(cache.hits, reg.counter("service.cache.hits").value() - h0);
  EXPECT_EQ(cache.misses, reg.counter("service.cache.misses").value() - m0);
  EXPECT_EQ(cache.evictions,
            reg.counter("service.cache.evictions").value() - e0);
  EXPECT_EQ(cache.negative_hits,
            reg.counter("service.cache.negative_hits").value() - n0);
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 1u);

  // And the snapshot export carries the same names.
  const std::string json = TuningService::metrics_json();
  EXPECT_NE(json.find("\"service.cache.hits\": "), std::string::npos);
  const std::string text = TuningService::metrics_text();
  EXPECT_NE(text.find("service.cache.misses"), std::string::npos);
}

TEST(ServiceApiTest, DestructorDrainsPendingWork) {
  Ticket first;
  {
    TuningService service(small_opts());
    first = service.submit(xmac_query(3.0));
    service.submit(xmac_query(4.0));
    service.submit(xmac_query(5.0));
    // Destroy with work still queued: the dispatcher drains rather than
    // drops — waiting on the head proves serving happened, and a clean
    // scope exit proves the tail didn't wedge the destructor.
    ASSERT_TRUE(service.wait(first).ok());
  }
  ASSERT_TRUE(first.valid());
}

TEST(LatencyHistogramTest, QuantilesAndCounters) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  for (int i = 0; i < 90; ++i) h.record(1e-3);   // 1 ms
  for (int i = 0; i < 10; ++i) h.record(100e-3);  // 100 ms
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.quantile(0.5), 1e-3, 1e-3);
  EXPECT_NEAR(h.quantile(0.95), 100e-3, 60e-3);
  EXPECT_GE(h.max(), 100e-3 * 0.999);
  EXPECT_LE(h.min(), 1e-3 * 1.001);
  EXPECT_NEAR(h.mean(), (90 * 1e-3 + 10 * 100e-3) / 100.0, 1e-9);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.9), 0.0);
}

TEST(LatencyHistogramTest, MonotoneQuantiles) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-4);  // 0.1 ms .. 100 ms
  double prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_LE(h.quantile(1.0), h.max() + 1e-12);
}

}  // namespace
}  // namespace edb::service
