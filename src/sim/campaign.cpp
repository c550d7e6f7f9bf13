#include "sim/campaign.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/obs.h"
#include "sim/builder.h"
#include "sim/protocol_factory.h"
#include "util/fingerprint.h"

namespace edb::sim {
namespace {

// Stream-domain separators: one constant per derived stream so the
// topology, loss and replication streams of a scenario never collide.
constexpr std::uint64_t kTopologyStream = 0x70b010ULL;
constexpr std::uint64_t kLossStream = 0x105510ULL;

// Shared byte-exact field encoders (util/fingerprint.h): the campaign
// fingerprint must render like the catalog's, forever.
constexpr auto put = fingerprint_put;
constexpr auto put_u64 = fingerprint_put_u64;

}  // namespace

std::string CampaignResult::fingerprint() const {
  std::string out;
  out.reserve(128 + reps.size() * 256);
  out += "name=" + name + ";protocol=" + protocol + ";";
  put_u64(out, "reps", reps.size());
  for (std::size_t r = 0; r < reps.size(); ++r) {
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "r%zu.", r);
    const std::string p(prefix);
    const ReplicationMetrics& m = reps[r];
    put(out, (p + "power").c_str(), m.bottleneck_power);
    put(out, (p + "delay").c_str(), m.deep_delay);
    put(out, (p + "delivery").c_str(), m.delivery_ratio);
    put_u64(out, (p + "generated").c_str(), m.generated);
    put_u64(out, (p + "delivered").c_str(), m.delivered);
    put_u64(out, (p + "frames").c_str(), m.frames);
    put_u64(out, (p + "collisions").c_str(), m.collisions);
    put_u64(out, (p + "events").c_str(), m.events);
  }
  return out;
}

Campaign::Campaign(CampaignOptions opts)
    : opts_(opts), fan_(opts.threads) {}

std::uint64_t Campaign::replication_seed(std::uint64_t campaign_seed,
                                         std::uint64_t scenario_seed,
                                         int replication) {
  return splitmix64(engine::job_seed(campaign_seed, scenario_seed) +
                    static_cast<std::uint64_t>(replication));
}

ReplicationMetrics Campaign::run_replication(const CampaignScenario& scenario,
                                             std::uint64_t rep_seed,
                                             SimArena* arena) {
  EDB_SPAN("sim.replication");
  const mac::ModelContext& ctx = scenario.context;
  auto factory = make_sim_factory(
      scenario.protocol,
      SimProtocolParams{.x = scenario.x,
                        .max_depth = ctx.ring.depth,
                        .lmac_slots = scenario.lmac_slots});
  EDB_ASSERT(factory.ok(), "campaign scenario needs a behavioural protocol");

  SimulationConfig cfg;
  cfg.radio = ctx.radio;
  cfg.packet = ctx.packet;
  cfg.traffic = ctx.traffic_model();
  cfg.duration = scenario.duration;
  cfg.seed = rep_seed;

  Simulation sim(cfg, arena);
  // The deployment is part of the scenario's identity: all replications
  // measure the same network, whatever the campaign seed.
  build_ring_corridor(sim, ctx.ring,
                      splitmix64(scenario.scenario_seed ^ kTopologyStream));
  if (needs_slot_assignment(scenario.protocol)) {
    sim.assign_lmac_slots(scenario.lmac_slots);
  }
  if (scenario.loss_probability > 0) {
    sim.channel().set_loss_probability(scenario.loss_probability,
                                       splitmix64(rep_seed ^ kLossStream));
  }
  sim.finalize(*factory);
  sim.run();

  ReplicationMetrics m;
  m.bottleneck_power = sim.mean_power_at_depth(1);
  m.deep_delay = sim.metrics().mean_delay_from_depth(ctx.ring.depth);
  m.delivery_ratio = sim.metrics().delivery_ratio();
  m.generated = sim.metrics().generated();
  m.delivered = sim.metrics().delivered();
  m.frames = sim.channel().frames_sent();
  m.collisions = sim.channel().collisions();
  m.events = sim.scheduler().events_executed();
  EDB_COUNT("sim.replications", 1);
  EDB_COUNT("sim.events", m.events);
  return m;
}

std::vector<CampaignResult> Campaign::run(
    const std::vector<CampaignScenario>& scenarios) {
  EDB_SPAN("sim.campaign");
  EDB_COUNT("sim.campaigns", 1);
  EDB_ASSERT(opts_.replications >= 1, "campaign needs >= 1 replication");
  const std::size_t n_reps = static_cast<std::size_t>(opts_.replications);
  const std::size_t n_jobs = scenarios.size() * n_reps;

  // Flat (scenario, replication) matrix; each fan job owns one cell.
  std::vector<std::vector<ReplicationMetrics>> cells(
      scenarios.size(), std::vector<ReplicationMetrics>(n_reps));
  fan_.run(n_jobs, [&](std::size_t i) {
    const std::size_t s = i / n_reps;
    const int r = static_cast<int>(i % n_reps);
    // Per-worker arena: kernel scratch is recycled across every
    // replication this thread runs, for this and later campaigns.
    thread_local SimArena arena;
    cells[s][r] = run_replication(
        scenarios[s],
        replication_seed(opts_.seed, scenarios[s].scenario_seed, r), &arena);
  });

  std::vector<CampaignResult> results;
  results.reserve(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    CampaignResult res;
    res.name = scenarios[s].name;
    res.protocol = scenarios[s].protocol;
    res.reps = std::move(cells[s]);
    for (const ReplicationMetrics& m : res.reps) {
      res.power.add(m.bottleneck_power);
      res.delay.add(m.deep_delay);
      res.delivery.add(m.delivery_ratio);
    }
    results.push_back(std::move(res));
  }
  return results;
}

}  // namespace edb::sim
