#include "service/core.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/sweep.h"
#include "mac/registry.h"

// Every global operator new of this test binary counts itself, so a test
// can count the allocations a serve makes.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// Out of line: inlined into their callers, the malloc/free pairs would
// draw gcc's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace edb::service {
namespace {

// Sequential engine: the miss pipeline (dedup, coalescing, cache hits,
// equality with core::run_sweep), not the executor, is under test, and a
// deterministic single thread keeps failures readable.
CoreOptions test_core_opts() {
  CoreOptions opts;
  opts.engine = core::EngineOptions{.threads = 1, .parallel = false};
  opts.cache_capacity = 64;
  opts.cache_shards = 4;
  return opts;
}

TuningQuery xmac_query(double l_max) {
  TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  q.scenario.requirements.l_max = l_max;
  q.protocols = {"X-MAC"};
  return q;
}

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : core_(test_core_opts()) {}

  ServiceCore core_;
};

TEST_F(PlannerTest, SolvesEachDistinctMissAsOneJob) {
  auto results = core_.serve({xmac_query(3.0), xmac_query(4.0),
                              xmac_query(5.0)});
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->per_protocol.size(), 1u);
    EXPECT_TRUE(r->per_protocol[0].feasible());
    EXPECT_EQ(r->recommended, 0);
  }
  const auto& stats = core_.planner_stats();
  EXPECT_EQ(stats.sweep_jobs, 3u);  // one engine job per distinct miss
  EXPECT_EQ(stats.solved, 3u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST_F(PlannerTest, ResultsBitIdenticalToColdRunSweep) {
  auto results = core_.serve({xmac_query(3.0), xmac_query(4.0),
                              xmac_query(5.0)});
  auto model =
      mac::make_model("X-MAC", core::Scenario::paper_default().context)
          .take();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double l_max = 3.0 + static_cast<double>(i);
    core::AppRequirements req = core::Scenario::paper_default().requirements;
    req.l_max = l_max;
    // The acceptance property: a served result equals a cold sequential
    // core::run_sweep of the same scenario, bit for bit.
    auto cold = core::run_sweep(*model, req, core::SweepKind::kLmax,
                                {l_max});
    const auto& served = results[i]->per_protocol[0];
    ASSERT_TRUE(cold.cells[0].feasible());
    ASSERT_TRUE(served.feasible());
    EXPECT_EQ(served.outcome->nbs.energy, cold.cells[0].outcome->nbs.energy);
    EXPECT_EQ(served.outcome->nbs.latency,
              cold.cells[0].outcome->nbs.latency);
    EXPECT_EQ(served.outcome->nash_product,
              cold.cells[0].outcome->nash_product);
    EXPECT_EQ(served.outcome->p1.energy, cold.cells[0].outcome->p1.energy);
    EXPECT_EQ(served.outcome->p2.latency, cold.cells[0].outcome->p2.latency);
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_point(const core::OperatingPoint& served,
                       const core::OperatingPoint& cold,
                       const std::string& where) {
  ASSERT_EQ(served.x.size(), cold.x.size()) << where;
  for (std::size_t i = 0; i < served.x.size(); ++i) {
    EXPECT_EQ(bits(served.x[i]), bits(cold.x[i])) << where << " x" << i;
  }
  EXPECT_EQ(bits(served.energy), bits(cold.energy)) << where;
  EXPECT_EQ(bits(served.latency), bits(cold.latency)) << where;
}

// The served path end to end: servebench's sweep_inproc ladder shape (32
// Lmax rungs from a quarter of the deployment's Lmax up a decade, catalog
// entry cc1000-legacy #0) goes through ServiceCore::serve as one batch of
// queries, and every protocol slot must equal a cold sequential
// core::run_sweep over the same rungs bit for bit, dead cells' codes and
// reason strings included.
TEST(ServedLadderTest, EveryRungMatchesColdRunSweep) {
  const core::Scenario sc = catalog::Catalog::builtin()
                                .expand("cc1000-legacy", 0,
                                        catalog::kDefaultSeed)
                                .scenario;
  const std::vector<std::string> protocols = {"X-MAC", "DMAC", "LMAC",
                                              "B-MAC"};
  constexpr int kRungs = 32;
  std::vector<double> values;
  std::vector<TuningQuery> queries;
  for (int r = 0; r < kRungs; ++r) {
    TuningQuery q;
    q.scenario = sc;
    q.scenario.requirements.l_max =
        sc.requirements.l_max * 0.25 * std::pow(10.0, r / (kRungs - 1.0));
    q.protocols = protocols;
    values.push_back(q.scenario.requirements.l_max);
    queries.push_back(q);
  }

  CoreOptions opts;
  opts.engine = core::EngineOptions{.threads = 2, .parallel = true};
  opts.cache_capacity = 256;
  ServiceCore core(opts);
  const auto served = core.serve(queries);
  ASSERT_EQ(served.size(), queries.size());
  EXPECT_EQ(core.planner_stats().solved, protocols.size() * kRungs);

  std::size_t dead = 0;
  for (const std::string& name : protocols) {
    auto model = mac::make_model(name, sc.context).take();
    const core::SweepResult cold =
        core::run_sweep(*model, sc.requirements, core::SweepKind::kLmax,
                        values);
    for (int r = 0; r < kRungs; ++r) {
      ASSERT_TRUE(served[r].ok()) << served[r].error().to_string();
      const ProtocolOutcome* po = nullptr;
      for (const auto& p : served[r]->per_protocol) {
        if (p.protocol == name) po = &p;
      }
      ASSERT_NE(po, nullptr) << name;
      const core::SweepCell& cell = cold.cells[r];
      const std::string where = name + " rung " + std::to_string(r);
      ASSERT_EQ(po->feasible(), cell.feasible()) << where;
      EXPECT_EQ(po->infeasible_code, cell.infeasible_code) << where;
      EXPECT_EQ(po->infeasible_reason, cell.infeasible_reason) << where;
      if (!cell.feasible()) {
        ++dead;
        continue;
      }
      expect_same_point(po->outcome->p1, cell.outcome->p1, where + " p1");
      expect_same_point(po->outcome->p2, cell.outcome->p2, where + " p2");
      expect_same_point(po->outcome->nbs, cell.outcome->nbs, where + " nbs");
      EXPECT_EQ(bits(po->outcome->nash_product),
                bits(cell.outcome->nash_product))
          << where;
    }
  }
  // The ladder straddles the protocols' latency floors: some rungs are
  // dead, most are not.
  EXPECT_GT(dead, 1u);
  EXPECT_LT(dead, protocols.size() * kRungs);
}

// Heap allocations per served query on the paper's three protocols at
// width 1, counted over a 32-query batch of misses and the same batch
// again as hits.  The pins are the counts this code made when they were
// set; a change may lower them (then lower the pin), never raise them.
TEST(ServeAllocations, PerMissAndPerHitArePinned) {
  constexpr long kMissBatchPin = 6278;  // 196.19 per query
  constexpr long kHitBatchPin = 645;  // 20.16 per query
  CoreOptions opts;
  opts.engine = core::EngineOptions{.threads = 1, .parallel = false};
  ServiceCore core(opts);
  const auto ladder = [](double from) {
    std::vector<TuningQuery> batch;
    for (int i = 0; i < 32; ++i) {
      TuningQuery q;
      q.scenario = core::Scenario::paper_default();
      q.scenario.requirements.l_max = from + 0.125 * i;
      q.protocols = {"X-MAC", "DMAC", "LMAC"};
      batch.push_back(q);
    }
    return batch;
  };
  core.serve(ladder(12.0));  // warm-up: registry names, engine scratch
  const std::vector<TuningQuery> batch = ladder(2.0);
  const auto count = [&] {
    const long before = g_allocations.load();
    const auto results = core.serve(batch);
    const long n = g_allocations.load() - before;
    for (const auto& r : results) EXPECT_TRUE(r.ok());
    return n;
  };
  const PlannerStats warm = core.planner_stats();
  const long misses = count();
  EXPECT_EQ(core.planner_stats().solved - warm.solved, 3 * batch.size());
  const long hits = count();
  EXPECT_EQ(core.planner_stats().cache_hits - warm.cache_hits,
            3 * batch.size());
  std::printf("allocations per query: %.2f per miss, %.2f per hit\n",
              misses / 32.0, hits / 32.0);
  EXPECT_LE(misses, kMissBatchPin) << "allocations over 32 missed queries";
  EXPECT_LE(hits, kHitBatchPin) << "allocations over 32 hit queries";
}

TEST_F(PlannerTest, CoalescesDuplicatesWithinABatch) {
  auto q = xmac_query(4.0);
  auto noisy = q;
  noisy.scenario.requirements.l_max *= 1.0 + 1e-13;  // quantizes identically
  auto results = core_.serve({q, q, noisy});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(core_.planner_stats().solved, 1u);
  EXPECT_EQ(core_.planner_stats().coalesced, 2u);
  EXPECT_EQ(results[0]->per_protocol[0].outcome->nbs.energy,
            results[2]->per_protocol[0].outcome->nbs.energy);
}

TEST_F(PlannerTest, SecondBatchIsAllCacheHits) {
  core_.serve({xmac_query(4.0), xmac_query(5.0)});
  const std::size_t solved_before = core_.planner_stats().solved;
  auto again = core_.serve({xmac_query(4.0), xmac_query(5.0)});
  EXPECT_EQ(core_.planner_stats().solved, solved_before);  // nothing new
  EXPECT_EQ(core_.planner_stats().cache_hits, 2u);
  for (const auto& r : again) ASSERT_TRUE(r.ok());
}

TEST_F(PlannerTest, PerQueryErrorsDoNotFailTheBatch) {
  auto bad_protocol = xmac_query(4.0);
  bad_protocol.protocols = {"T-MAC"};
  auto bad_scenario = xmac_query(4.0);
  bad_scenario.scenario.requirements.l_max = -1.0;
  auto bad_alpha = xmac_query(4.0);
  bad_alpha.options.alpha = 1.0;  // solve_weighted wants (0, 1) open
  auto results = core_.serve(
      {bad_protocol, xmac_query(4.0), bad_scenario, bad_alpha});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].error().code, ErrorCode::kNotFound);
  EXPECT_TRUE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_FALSE(results[3].ok());
  EXPECT_EQ(results[3].error().code, ErrorCode::kInvalidArgument);
}

TEST_F(PlannerTest, RecommendationMaximisesEnergyHeadroom) {
  TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  q.protocols = {"X-MAC", "DMAC"};
  auto results = core_.serve({q});
  ASSERT_TRUE(results[0].ok());
  const auto& r = *results[0];
  ASSERT_EQ(r.per_protocol.size(), 2u);
  ASSERT_GE(r.recommended, 0);
  // Recompute the ranking by hand (the protocol_selection rule).
  double best_headroom = -1;
  int best = -1;
  for (std::size_t i = 0; i < r.per_protocol.size(); ++i) {
    if (!r.per_protocol[i].feasible()) continue;
    const double headroom = q.scenario.requirements.e_budget -
                            r.per_protocol[i].outcome->nbs.energy;
    if (best < 0 || headroom > best_headroom) {
      best_headroom = headroom;
      best = static_cast<int>(i);
    }
  }
  EXPECT_EQ(r.recommended, best);
}

TEST_F(PlannerTest, ProtocolOrderIsCanonical) {
  TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  q.protocols = {"xmac", "dmac"};
  auto results = core_.serve({q});
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0]->per_protocol[0].protocol, "DMAC");
  EXPECT_EQ(results[0]->per_protocol[1].protocol, "X-MAC");
}

}  // namespace
}  // namespace edb::service
