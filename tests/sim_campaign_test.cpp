// Campaign determinism contract: same (scenario, seed, R) produces
// byte-identical metric fingerprints at any thread count and under any
// submission order, and arena reuse is invisible in the results.
#include "sim/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "sim/protocol_factory.h"

namespace edb::sim {
namespace {

// Small, fast deployments: 13 nodes, ~200 simulated seconds.
std::vector<CampaignScenario> small_scenarios() {
  std::vector<CampaignScenario> out;

  CampaignScenario xmac;
  xmac.name = "xmac-small";
  xmac.protocol = "xmac";  // registry spelling resolves like the analytic side
  xmac.x = {0.3};
  xmac.ring = net::RingTopology{.depth = 2, .density = 2};
  xmac.fs = 0.02;
  xmac.duration = 200;
  xmac.scenario_seed = 1001;
  out.push_back(xmac);

  CampaignScenario dmac = xmac;
  dmac.name = "dmac-small";
  dmac.protocol = "DMAC";
  dmac.x = {1.0};
  dmac.scenario_seed = 1002;
  out.push_back(dmac);

  CampaignScenario lmac = xmac;
  lmac.name = "lmac-small";
  lmac.protocol = "LMAC";
  lmac.x = {0.05};
  lmac.lmac_slots = 21;
  lmac.scenario_seed = 1003;
  out.push_back(lmac);

  CampaignScenario lossy = xmac;
  lossy.name = "xmac-lossy-bursty";
  lossy.loss_probability = 0.1;
  lossy.arrivals = net::ArrivalProcess::kBursty;
  lossy.burst_factor = 4.0;
  lossy.scenario_seed = 1004;
  out.push_back(lossy);

  return out;
}

std::vector<std::string> fingerprints(const std::vector<CampaignResult>& rs) {
  std::vector<std::string> out;
  for (const auto& r : rs) out.push_back(r.fingerprint());
  return out;
}

TEST(Campaign, FingerprintsByteIdenticalAcrossThreadCounts) {
  const auto scenarios = small_scenarios();
  std::vector<std::vector<std::string>> runs;
  for (int threads : {1, 4, 8}) {
    CampaignOptions opts;
    opts.replications = 3;
    opts.seed = 99;
    opts.threads = threads;
    Campaign campaign(opts);
    runs.push_back(fingerprints(campaign.run(scenarios)));
  }
  ASSERT_EQ(runs[0].size(), scenarios.size());
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(Campaign, ShuffledSubmissionOrderDoesNotChangeAnyScenario) {
  auto scenarios = small_scenarios();
  CampaignOptions opts;
  opts.replications = 2;
  opts.seed = 7;
  opts.threads = 4;
  Campaign forward(opts);
  const auto fwd = forward.run(scenarios);

  std::vector<CampaignScenario> shuffled = {scenarios[2], scenarios[0],
                                            scenarios[3], scenarios[1]};
  Campaign backward(opts);
  const auto rev = backward.run(shuffled);

  std::map<std::string, std::string> by_name;
  for (const auto& r : rev) by_name[r.name] = r.fingerprint();
  for (const auto& r : fwd) {
    EXPECT_EQ(r.fingerprint(), by_name.at(r.name)) << r.name;
  }
}

TEST(Campaign, ArenaReuseIsInvisibleInResults) {
  const auto scenarios = small_scenarios();
  const std::uint64_t rep_seed =
      Campaign::replication_seed(5, scenarios[0].scenario_seed, 0);

  SimArena arena;
  // Warm the arena on a different scenario first, then run the probe
  // replication against recycled scratch.
  (void)Campaign::run_replication(scenarios[1], rep_seed, &arena);
  const auto pooled = Campaign::run_replication(scenarios[0], rep_seed,
                                                &arena);
  const auto fresh = Campaign::run_replication(scenarios[0], rep_seed,
                                               nullptr);
  EXPECT_EQ(pooled.bottleneck_power, fresh.bottleneck_power);
  EXPECT_EQ(pooled.deep_delay, fresh.deep_delay);
  EXPECT_EQ(pooled.delivery_ratio, fresh.delivery_ratio);
  EXPECT_EQ(pooled.generated, fresh.generated);
  EXPECT_EQ(pooled.delivered, fresh.delivered);
  EXPECT_EQ(pooled.frames, fresh.frames);
  EXPECT_EQ(pooled.collisions, fresh.collisions);
  EXPECT_EQ(pooled.events, fresh.events);
}

TEST(Campaign, ReplicationsDifferAndAggregateInOrder) {
  CampaignOptions opts;
  opts.replications = 3;
  opts.seed = 11;
  opts.threads = 1;
  Campaign campaign(opts);
  const auto results = campaign.run({small_scenarios()[0]});
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  ASSERT_EQ(r.reps.size(), 3u);

  // Replications use distinct streams: some metric must differ.
  EXPECT_FALSE(r.reps[0].bottleneck_power == r.reps[1].bottleneck_power &&
               r.reps[1].bottleneck_power == r.reps[2].bottleneck_power);

  // The Welford aggregate is the replication-order fold of the raw reps.
  Welford expect_power;
  for (const auto& rep : r.reps) expect_power.add(rep.bottleneck_power);
  EXPECT_EQ(r.power.mean(), expect_power.mean());
  EXPECT_EQ(r.power.ci95_halfwidth(), expect_power.ci95_halfwidth());
  EXPECT_EQ(r.power.count(), 3u);

  // Every replication delivered something in this benign scenario.
  for (const auto& rep : r.reps) {
    EXPECT_GT(rep.delivered, 0u);
    EXPECT_GT(rep.events, 0u);
  }
}

TEST(Campaign, ReplicationSeedDerivationIsPinned) {
  // The derivation is part of the determinism contract: splitmix64 over
  // (campaign seed, scenario seed, replication).  Guards against silent
  // reseeding that would invalidate recorded fingerprints.
  const std::uint64_t s0 = Campaign::replication_seed(1, 2, 0);
  EXPECT_EQ(s0, splitmix64(engine::job_seed(1, 2)));
  EXPECT_EQ(Campaign::replication_seed(1, 2, 3),
            splitmix64(engine::job_seed(1, 2) + 3));
  EXPECT_NE(Campaign::replication_seed(1, 2, 0),
            Campaign::replication_seed(1, 2, 1));
  EXPECT_NE(Campaign::replication_seed(1, 2, 0),
            Campaign::replication_seed(2, 2, 0));
}

TEST(ProtocolFactory, ResolvesRegistryNamesAndRejectsAnalyticOnly) {
  EXPECT_TRUE(sim_supported("xmac"));
  EXPECT_TRUE(sim_supported("X MAC"));
  EXPECT_TRUE(sim_supported("scp-mac"));
  EXPECT_FALSE(sim_supported("S-MAC"));     // analytic-only (2-D)
  EXPECT_FALSE(sim_supported("WiseMAC"));   // analytic-only
  EXPECT_FALSE(sim_supported("no-such"));

  EXPECT_TRUE(needs_slot_assignment("lmac"));
  EXPECT_FALSE(needs_slot_assignment("xmac"));

  EXPECT_TRUE(make_sim_factory("dmac", {.x = {1.0}, .max_depth = 3}).ok());
  EXPECT_FALSE(make_sim_factory("smac", {.x = {0.5}}).ok());
  EXPECT_FALSE(make_sim_factory("xmac", {.x = {0.5, 0.5}}).ok());
  EXPECT_FALSE(make_sim_factory("xmac", {.x = {-1.0}}).ok());
  EXPECT_FALSE(
      make_sim_factory("lmac", {.x = {0.05}, .lmac_slots = 1}).ok());
  EXPECT_EQ(sim_protocols().size(), 5u);
}

}  // namespace
}  // namespace edb::sim
