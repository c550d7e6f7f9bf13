#include "catalog/validation.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "mac/lmac.h"
#include "mac/registry.h"
#include "sim/protocol_factory.h"
#include "util/csv.h"
#include "util/math.h"

namespace edb::catalog {
namespace {

// Sim-scaled twin shape: the deployment is clamped to at most kMaxDepth
// rings of density kMaxDensity, its per-source rate into [kMinFs, kMaxFs]
// (a floor so packets flow, a ceiling so the corridor stays unsaturated)
// and its burst factor to kMaxBurstFactor; the simulated duration is
// sized for kTargetPackets per source, capped at kMaxDuration.
constexpr int kMaxDepth = 3;
constexpr double kMaxDensity = 4.0;
constexpr double kMinFs = 4e-3;  // [packets/s]
constexpr double kMaxFs = 0.02;  // [packets/s]
constexpr double kMaxBurstFactor = 8.0;
constexpr double kTargetPackets = 8.0;
constexpr double kMaxDuration = 2500.0;  // [s] simulated

// Preferred fraction of the analytic parameter box per protocol, chosen
// so the twin runs unsaturated (small LMAC frames, short DMAC cycles)
// without exploding the kernel event count (X-MAC polls).  The probe
// ladder below falls back to other fractions when the preferred point is
// infeasible for a twin's context.
double preferred_fraction(const std::string& protocol) {
  // DMAC sits low in its box: a long cycle makes every corridor
  // contention deferral cost a whole cycle, drowning the per-hop latency
  // the model predicts.
  if (protocol == "DMAC") return 0.1;
  if (protocol == "LMAC") return 0.3;
  return 0.35;  // X-MAC
}

std::vector<double> probe_operating_point(const mac::AnalyticMacModel& model,
                                          double preferred) {
  const auto& space = model.params();
  const double ladder[] = {preferred, 0.35, 0.5, 0.65, 0.8, 0.2};
  for (double f : ladder) {
    std::vector<double> x(space.dim());
    for (std::size_t i = 0; i < space.dim(); ++i) {
      const auto& info = space.info(i);
      x[i] = info.lo + f * (info.hi - info.lo);
    }
    if (model.feasibility_margin(x) > 0) return x;
  }
  return {};
}

std::size_t total_twin_nodes(const net::RingTopology& ring) {
  std::size_t n = 1;  // sink
  for (int d = 1; d <= ring.depth; ++d) {
    n += static_cast<std::size_t>(std::lround(ring.nodes_in_ring(d)));
  }
  return n;
}

}  // namespace

SimTwin sim_twin(const CatalogScenario& scenario,
                 const ValidationOptions& options) {
  SimTwin twin;

  // The paper protocols carry the calibrated analytic models; rotate so
  // every family exercises all three across its indices.
  const std::vector<std::string> protocols = mac::paper_protocols();
  twin.protocol = protocols[scenario.index % protocols.size()];

  // Scale the deployment to simulator size, keeping the physics: the
  // model prediction is evaluated on exactly this scaled context, so the
  // comparison is exact wherever the twin lands.
  mac::ModelContext ctx = scenario.scenario.context;
  ctx.ring.depth = std::min(ctx.ring.depth, kMaxDepth);
  ctx.ring.density = std::min(ctx.ring.density, kMaxDensity);
  ctx.fs = clamp(ctx.fs, kMinFs, kMaxFs);
  // The model sees the same arrival shape the campaign will simulate
  // (burst factor clamped identically to the campaign cell below) and
  // the requested fidelity.  Under kV1 these fields are inert, so the
  // kV1 atlas is byte-identical to the pre-kV2 one; under kV2Queueing
  // both the operating-point probe and the latency prediction consume
  // them.
  ctx.arrivals = scenario.sim.poisson_arrivals
                     ? net::ArrivalProcess::kPoisson
                     : (scenario.sim.burst_factor > 1.0
                            ? net::ArrivalProcess::kBursty
                            : net::ArrivalProcess::kPeriodic);
  ctx.burst_factor = std::min(scenario.sim.burst_factor, kMaxBurstFactor);
  ctx.model_version = options.model_version;

  const std::size_t nodes = total_twin_nodes(ctx.ring);
  const int lmac_slots = static_cast<int>(nodes) + 8;

  std::unique_ptr<mac::AnalyticMacModel> model;
  if (twin.protocol == "LMAC") {
    // The corridor's 2-hop neighbourhoods span nearly the whole twin, so
    // the frame must hold every node; the model is built over the same
    // frame so prediction and behaviour share one configuration.
    auto cfg = mac::LmacModel::default_config(ctx);
    cfg.n_slots = lmac_slots;
    model = std::make_unique<mac::LmacModel>(ctx, cfg);
  } else {
    auto made = mac::make_model(twin.protocol, ctx);
    EDB_ASSERT(made.ok(), "paper protocol must construct");
    model = std::move(made).take();
  }

  twin.x = probe_operating_point(*model, preferred_fraction(twin.protocol));
  if (twin.x.empty()) return twin;  // no feasible point: not sim-capable

  twin.predicted_power = model->power_at_ring(twin.x, 1).total();
  twin.predicted_latency = model->latency(twin.x);

  sim::CampaignScenario& c = twin.campaign;
  c.name = scenario.id();
  c.protocol = twin.protocol;
  c.x = twin.x;
  c.context = ctx;
  c.loss_probability = scenario.sim.loss_probability;
  c.duration = std::min(kMaxDuration, kTargetPackets / ctx.fs);
  c.lmac_slots = lmac_slots;
  // The satellite fix of this PR: *every* family keys its campaign
  // streams off the scenario's own sim seed, so catalog-wide campaign
  // regeneration is as seed-stable as scenario expansion itself.
  c.scenario_seed = scenario.sim_seed();
  twin.capable = true;
  return twin;
}

ValidationAtlas run_validation_atlas(const Catalog& catalog,
                                     const ValidationOptions& options) {
  ValidationAtlas atlas;

  // Expand and derive twins in catalog order; remember each campaign
  // cell's provenance so rows can be assembled after the fan.
  struct Pending {
    const ScenarioFamily* family;
    CatalogScenario scenario;
    SimTwin twin;
  };
  std::vector<Pending> pending;
  std::vector<std::size_t> skipped_per_family;
  for (const auto& family : catalog.families()) {
    std::size_t n = family->size();
    if (options.per_family_cap > 0) {
      n = std::min(n, options.per_family_cap);
    }
    std::size_t skipped = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Pending p{family.get(), family->expand(i, kDefaultSeed), {}};
      p.twin = sim_twin(p.scenario, options);
      if (!p.twin.capable) {
        ++skipped;
        continue;
      }
      pending.push_back(std::move(p));
    }
    skipped_per_family.push_back(skipped);
    atlas.skipped += skipped;
  }

  std::vector<sim::CampaignScenario> cells;
  cells.reserve(pending.size());
  for (const auto& p : pending) cells.push_back(p.twin.campaign);

  sim::CampaignOptions copts;
  copts.replications = options.replications;
  copts.threads = options.threads;
  copts.seed = kDefaultSeed;
  sim::Campaign campaign(copts);
  const auto results = campaign.run(cells);

  atlas.rows.reserve(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const Pending& p = pending[i];
    const sim::CampaignResult& r = results[i];
    ValidationRow row;
    row.family = p.scenario.family;
    row.index = p.scenario.index;
    row.protocol = p.twin.protocol;
    row.x0 = p.twin.x[0];
    row.predicted_power = p.twin.predicted_power;
    row.measured_power = r.power.mean();
    row.power_ci = r.power.ci95_halfwidth();
    row.power_rel_err = rel_diff(row.predicted_power, row.measured_power);
    row.predicted_latency = p.twin.predicted_latency;
    row.measured_latency = r.delay.mean();
    row.latency_ci = r.delay.ci95_halfwidth();
    row.latency_rel_err =
        std::isnan(row.measured_latency)
            ? kNaN
            : rel_diff(row.predicted_latency, row.measured_latency);
    row.delivery = r.delivery.mean();
    row.clock_drift_ppm = p.scenario.sim.clock_drift_ppm;
    row.replications = static_cast<int>(r.reps.size());
    for (const auto& rep : r.reps) row.events += rep.events;
    row.fingerprint = r.fingerprint();
    atlas.rows.push_back(std::move(row));
    atlas.replications += r.reps.size();
    atlas.events += atlas.rows.back().events;
  }
  atlas.simulated = atlas.rows.size();

  // Per-family aggregation, folded in catalog order (deterministic).
  std::size_t family_idx = 0;
  for (const auto& family : catalog.families()) {
    FamilyValidation fam;
    fam.family = family->name();
    fam.skipped = skipped_per_family[family_idx++];
    for (const auto& row : atlas.rows) {
      if (row.family != fam.family) continue;
      ++fam.scenarios;
      fam.power_err.add(std::abs(row.power_rel_err));
      if (!std::isnan(row.latency_rel_err)) {
        fam.latency_err.add(std::abs(row.latency_rel_err));
      }
      fam.delivery.add(row.delivery);
    }
    atlas.families.push_back(std::move(fam));
  }
  return atlas;
}

void write_validation_csv(std::ostream& out, const ValidationAtlas& atlas) {
  CsvWriter csv(out, {"family", "index", "protocol", "x", "pred_power_W",
                      "meas_power_W", "power_ci_W", "power_rel_err",
                      "pred_latency_s", "meas_latency_s", "latency_ci_s",
                      "latency_rel_err", "delivery", "replications",
                      "events"});
  for (const auto& row : atlas.rows) {
    csv.row({row.family, std::to_string(row.index), row.protocol,
             std::to_string(row.x0), std::to_string(row.predicted_power),
             std::to_string(row.measured_power),
             std::to_string(row.power_ci),
             std::to_string(row.power_rel_err),
             std::to_string(row.predicted_latency),
             std::to_string(row.measured_latency),
             std::to_string(row.latency_ci),
             std::to_string(row.latency_rel_err),
             std::to_string(row.delivery),
             std::to_string(row.replications),
             std::to_string(row.events)});
  }
}

}  // namespace edb::catalog
