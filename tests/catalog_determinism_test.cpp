// The catalog's determinism contract (DESIGN.md §5): expand(index, seed)
// is a pure function of (family, index, seed), so regeneration under a
// shuffled, multi-threaded batch order is byte-identical to sequential
// generation — and serving the regenerated scenarios returns bit-identical
// results.
#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "engine/fan.h"
#include "service/service.h"
#include "sim/builder.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace {

using edb::catalog::Catalog;
using edb::catalog::CatalogScenario;
using edb::catalog::kDefaultSeed;

// Deterministic index permutation (no std::shuffle: its output is
// implementation-defined).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  edb::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.uniform_int(i)]);
  }
  return p;
}

TEST(CatalogDeterminism, ShuffledParallelRegenerationIsByteIdentical) {
  const Catalog cat = Catalog::builtin();
  for (const auto& family : cat.families()) {
    // Reference pass: sequential, in index order.
    std::vector<std::string> reference;
    for (std::size_t i = 0; i < family->size(); ++i) {
      reference.push_back(family->expand(i, kDefaultSeed).fingerprint());
    }

    // Second pass: shuffled order, fanned across four threads, each job
    // writing only its own slot.
    const auto order = permutation(family->size(), 0xfeedULL);
    std::vector<std::string> shuffled(family->size());
    edb::engine::Fan(4).run(family->size(), [&](std::size_t k) {
      const std::size_t i = order[k];
      shuffled[i] = family->expand(i, kDefaultSeed).fingerprint();
    });

    for (std::size_t i = 0; i < family->size(); ++i) {
      EXPECT_EQ(reference[i], shuffled[i])
          << family->name() << "[" << i << "]";
    }
  }
}

TEST(CatalogDeterminism, StreamsAreKeyedByFamilyIndexAndSeed) {
  const Catalog cat = Catalog::builtin();
  const auto a = cat.expand("dense-ring", 3, kDefaultSeed);
  const auto b = cat.expand("dense-ring", 3, kDefaultSeed);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Any component of the key changes the stream.
  EXPECT_NE(a.fingerprint(),
            cat.expand("dense-ring", 4, kDefaultSeed).fingerprint());
  EXPECT_NE(a.fingerprint(),
            cat.expand("dense-ring", 3, kDefaultSeed + 1).fingerprint());
  EXPECT_NE(
      edb::catalog::scenario_stream_seed("dense-ring", 3, kDefaultSeed),
      edb::catalog::scenario_stream_seed("sparse-ring", 3, kDefaultSeed));
}

// The fingerprint is the determinism contract's unit, so it must cover
// the arrival shape and model version too: two expansions that differ
// only there are different scenarios.
TEST(CatalogDeterminism, FingerprintCoversArrivalShapeAndModelVersion) {
  const CatalogScenario a =
      Catalog::builtin().expand("paper-baseline", 0, kDefaultSeed);
  CatalogScenario b = a;
  b.scenario.context.arrivals = edb::net::ArrivalProcess::kBursty;
  EXPECT_NE(a.fingerprint(), b.fingerprint()) << "arrivals";
  b = a;
  b.scenario.context.jitter_frac += 0.05;
  EXPECT_NE(a.fingerprint(), b.fingerprint()) << "jitter_frac";
  b = a;
  b.scenario.context.burst_factor += 1.0;
  EXPECT_NE(a.fingerprint(), b.fingerprint()) << "burst_factor";
  b = a;
  b.scenario.context.model_version = edb::mac::ModelVersion::kV2Queueing;
  EXPECT_NE(a.fingerprint(), b.fingerprint()) << "model_version";
}

TEST(CatalogDeterminism, IndicesAreStableUnderCatalogRescaling) {
  const Catalog full = Catalog::builtin(1.0);
  const Catalog quarter = Catalog::builtin(0.25);
  for (const auto& family : quarter.families()) {
    for (std::size_t i = 0; i < family->size(); ++i) {
      EXPECT_EQ(family->expand(i, kDefaultSeed).fingerprint(),
                full.expand(family->name(), i, kDefaultSeed).fingerprint());
    }
  }
}

TEST(CatalogDeterminism, SimBuilderHookRegeneratesTheSameTopology) {
  const Catalog cat = Catalog::builtin();
  const CatalogScenario sc = cat.expand("lossy-channel", 0, kDefaultSeed);

  auto layout = [&] {
    edb::sim::SimulationConfig cfg;
    cfg.radio = sc.scenario.context.radio;
    cfg.packet = sc.scenario.context.packet;
    edb::sim::Simulation sim(cfg);
    sim.channel().set_loss_probability(sc.sim.loss_probability,
                                       sc.sim_seed());
    auto ids = edb::sim::build_ring_corridor(sim, sc.scenario.context.ring,
                                             sc.sim_seed());
    std::vector<std::pair<double, double>> pos;
    for (int id : ids) {
      pos.emplace_back(sim.node(id).x(), sim.node(id).y());
    }
    return pos;
  };
  EXPECT_EQ(layout(), layout());
}

TEST(CatalogDeterminism, ShuffledQueryBatchServesIdenticalResults) {
  // A light cross-family slice (small depths, one protocol) so the test
  // pays a handful of solves, not a full atlas run.
  const Catalog cat = Catalog::builtin();
  const char* picks[] = {"paper-baseline", "dense-ring",   "wide-tree",
                         "poisson-traffic", "lossy-channel", "tight-budget"};
  std::vector<edb::service::TuningQuery> queries;
  for (const char* family : picks) {
    edb::service::TuningQuery q;
    q.scenario = cat.expand(family, 0, kDefaultSeed).scenario;
    q.protocols = {"X-MAC"};
    queries.push_back(std::move(q));
  }

  auto serve = [&](const std::vector<std::size_t>& order, int threads) {
    std::vector<edb::service::TuningQuery> batch;
    for (std::size_t i : order) batch.push_back(queries[i]);
    edb::service::ServiceOptions opts;
    opts.engine.threads = threads;
    opts.engine.parallel = threads > 1;
    edb::service::TuningService service(opts);
    auto raw = service.query_batch(batch);
    // Undo the permutation so slot i answers queries[i] again.
    std::vector<edb::Expected<edb::service::TuningResult>> out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto it = std::find(order.begin(), order.end(), i);
      out.push_back(raw[static_cast<std::size_t>(it - order.begin())]);
    }
    return out;
  };

  std::vector<std::size_t> in_order(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) in_order[i] = i;
  const auto base = serve(in_order, 1);
  const auto shuffled =
      serve(permutation(queries.size(), 0xabcdULL), 4);

  ASSERT_EQ(base.size(), shuffled.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(base[i].ok(), shuffled[i].ok()) << i;
    if (!base[i].ok()) continue;
    EXPECT_EQ(base[i]->key.canonical, shuffled[i]->key.canonical);
    EXPECT_EQ(base[i]->recommended, shuffled[i]->recommended);
    ASSERT_EQ(base[i]->per_protocol.size(), shuffled[i]->per_protocol.size());
    for (std::size_t p = 0; p < base[i]->per_protocol.size(); ++p) {
      const auto& a = base[i]->per_protocol[p];
      const auto& b = shuffled[i]->per_protocol[p];
      EXPECT_EQ(a.protocol, b.protocol);
      ASSERT_EQ(a.feasible(), b.feasible());
      EXPECT_EQ(a.infeasible_reason, b.infeasible_reason);
      if (!a.feasible()) continue;
      // Bit-identical serving: exact double equality is the assertion.
      EXPECT_EQ(a.outcome->nbs.energy, b.outcome->nbs.energy);
      EXPECT_EQ(a.outcome->nbs.latency, b.outcome->nbs.latency);
      EXPECT_EQ(a.outcome->nbs.x, b.outcome->nbs.x);
      EXPECT_EQ(a.outcome->nash_product, b.outcome->nash_product);
    }
  }
}

}  // namespace
