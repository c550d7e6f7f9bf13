// Campaign determinism contract: same (scenario, seed, R) produces
// byte-identical metric fingerprints at any thread count and under any
// submission order, and arena reuse is invisible in the results.
#include "sim/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/builder.h"
#include "sim/protocol_factory.h"
#include "util/fingerprint.h"

namespace edb::sim {
namespace {

// Small, fast deployments: 13 nodes, ~200 simulated seconds.
std::vector<CampaignScenario> small_scenarios() {
  std::vector<CampaignScenario> out;

  CampaignScenario xmac;
  xmac.name = "xmac-small";
  xmac.protocol = "xmac";  // registry spelling resolves like the analytic side
  xmac.x = {0.3};
  xmac.context.ring = net::RingTopology{.depth = 2, .density = 2};
  xmac.context.fs = 0.02;
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
  lossy.context.arrivals = net::ArrivalProcess::kBursty;
  lossy.context.burst_factor = 4.0;
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

// Every behavioural protocol, plus a lossy bursty X-MAC cell (retries,
// drops, busy-channel deferrals), a lossy Poisson SCP-MAC cell (ACK
// timeouts re-aimed at the next poll) and a lossy DMAC cell (retries in
// later cycles).  The set is fixed: its
// fingerprints are pinned below.
// Operating points in sim_protocols() order.
const std::vector<double> kPinnedX = {0.3, 1.0, 0.05, 0.3, 0.3};

std::vector<CampaignScenario> pinned_scenarios() {
  const std::vector<std::string> protocols = sim_protocols();
  std::vector<CampaignScenario> out;
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    CampaignScenario s = small_scenarios()[0];
    s.name = "pin-" + protocols[i];
    s.protocol = protocols[i];
    s.x = {kPinnedX[i]};
    s.context.fs = 0.05;
    s.duration = 600;
    s.lmac_slots = 21;
    s.scenario_seed = 2000 + i;
    out.push_back(s);
  }
  CampaignScenario lossy = out[0];
  lossy.name = "pin-X-MAC-lossy-bursty";
  lossy.loss_probability = 0.1;
  lossy.context.arrivals = net::ArrivalProcess::kBursty;
  lossy.context.burst_factor = 4.0;
  lossy.scenario_seed = 2010;
  out.push_back(lossy);

  CampaignScenario poisson = out[4];
  poisson.name = "pin-SCP-MAC-poisson-lossy";
  poisson.context.arrivals = net::ArrivalProcess::kPoisson;
  poisson.loss_probability = 0.1;
  poisson.scenario_seed = 2011;
  out.push_back(poisson);

  CampaignScenario lossy_dmac = out[1];
  lossy_dmac.name = "pin-DMAC-lossy";
  lossy_dmac.loss_probability = 0.1;
  lossy_dmac.scenario_seed = 2012;
  out.push_back(lossy_dmac);
  return out;
}

// The other campaign tests compare runs with each other, so a change that
// moved every run alike (an event reordered, a radio interval split, an
// RNG draw added) would pass them.  These pins fail on any such change.
TEST(Campaign, FingerprintsArePinned) {
  CampaignOptions opts;
  opts.replications = 2;
  opts.seed = 2024;
  opts.threads = 2;
  Campaign campaign(opts);
  const auto results = campaign.run(pinned_scenarios());
  const std::vector<std::uint64_t> pinned = {
      0xdcf452a814db32e9ULL,  // X-MAC
      0x1604c739ac593c19ULL,  // DMAC
      0xb74cc0c195d43dfcULL,  // LMAC
      0x4f398c15c30ab536ULL,  // B-MAC
      0xf56206637001b2e5ULL,  // SCP-MAC
      0xf94a21217a3e4ab9ULL,  // X-MAC, lossy and bursty
      0x591b5f7a9e229f87ULL,  // SCP-MAC, Poisson and lossy
      0x14a4a8916cbb3a4cULL,  // DMAC, lossy
  };
  ASSERT_EQ(results.size(), pinned.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(
                      fnv1a64(results[i].fingerprint())));
    EXPECT_EQ(fnv1a64(results[i].fingerprint()), pinned[i])
        << results[i].name << " now hashes to " << hex;
    for (const ReplicationMetrics& rep : results[i].reps) {
      EXPECT_GT(rep.delivered, 0u) << results[i].name;
    }
  }

  // Each factory-built MAC names itself and counts its queue.
  const std::vector<std::string> names = {"X-MAC/sim", "DMAC/sim",
                                          "LMAC/sim", "B-MAC/sim",
                                          "SCP-MAC/sim"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string protocol = sim_protocols()[i];
    auto factory = make_sim_factory(protocol, {.x = {kPinnedX[i]}});
    ASSERT_TRUE(factory.ok()) << protocol;
    Simulation sim(SimulationConfig{});
    build_chain(sim, 1);
    if (needs_slot_assignment(protocol)) sim.assign_lmac_slots(16);
    sim.finalize(*factory);
    MacProtocol& mac = sim.node(1).mac();
    EXPECT_EQ(mac.name(), names[i]);
    EXPECT_EQ(mac.queue_length(), 0u) << protocol;
    sim.node(1).originate(Packet{.uid = 1, .origin = 1});
    EXPECT_EQ(mac.queue_length(), 1u) << protocol;
  }
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
