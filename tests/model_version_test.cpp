// kV1 bit-freeze and version-threading tests (mac/model.h ModelVersion).
//
// The kV1 goldens below were captured from the tree immediately before
// the kV2Queueing term landed (same toolchain: gcc, -O2,
// -ffp-contract=off, glibc libm): paper-default bargaining solves,
// protocol envelopes, and a small campaign fingerprint, all rendered as
// hex floats.  kV1 is the default fidelity and must stay bit-identical
// to these values forever — any drift means the version flag leaked into
// the v1 arithmetic.  The service-key tests pin the other half of the
// contract: a kV1 and a kV2Queueing query can never share a cache entry.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/game_framework.h"
#include "core/scenario.h"
#include "mac/registry.h"
#include "service/key.h"
#include "sim/campaign.h"

namespace edb {
namespace {

::testing::AssertionResult bits_eq(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "%a != %a", a, b);
  return ::testing::AssertionFailure() << buf;
}

struct SolveGolden {
  const char* protocol;
  double p1_x, p1_e, p1_l;
  double p2_x, p2_e, p2_l;
  double nbs_x, nbs_e, nbs_l;
  double nash;
  double env_e, env_l;
};

// Pre-kV2 captures at Scenario::paper_default(), SolverMode::kDescent.
constexpr SolveGolden kGoldens[] = {
    {"X-MAC",
     0x1.00fbff8231a76p+0, 0x1.32b0c5607263p-7, 0x1.43157a6df72a6p+1,
     0x1.3333333333333p-3, 0x1.fde5a19079e61p-6, 0x1.8ed3d859c8c92p-2,
     0x1.82084f0ebe9bcp-2, 0x1.cb9fcf0c68763p-7, 0x1.e9f44eff52a75p-1,
     0x1.b6ef6d2b52561p-6,
     0x1.32b0c56072632p-7, 0x1.8ed3d859c8c92p-2},
    {"DMAC",
     0x1.7d09bf9c5c125p+3, 0x1.3405ee405fa1p-7, 0x1.7ffffffff9708p+2,
     0x1.c236c115152cbp+0, 0x1.eb851eb83b3f4p-5, 0x1.d9e8c432001f2p-1,
     0x1.24df5d9e17778p+2, 0x1.802a251ed6d86p-6, 0x1.2acbde6552343p+1,
     0x1.1268a02bc5f85p-3,
     0x1.31ce965421aefp-7, 0x1.2f640639d5e49p-2},
    {"LMAC",
     0x1.11111110f8526p-3, 0x1.34617da1ee282p-5, 0x1.7fffffffdd33ep+2,
     0x1.55882685e29b1p-4, 0x1.eb851eb850e11p-5, 0x1.e047762c46aa1p+1,
     0x1.afe1c00333c89p-4, 0x1.8540d6a234e4bp-5, 0x1.2faabb024069p+2,
     0x1.00bb36125acf7p-6,
     0x1.1a704b245a17cp-7, 0x1.147ae147ae148p-3},
};

TEST(ModelVersion, KV1IsTheDefault) {
  mac::ModelContext ctx;
  EXPECT_EQ(ctx.model_version, mac::ModelVersion::kV1);
}

TEST(ModelVersion, KV1SolvesMatchPreKV2Goldens) {
  const core::Scenario sc = core::Scenario::paper_default();
  for (const auto& g : kGoldens) {
    auto made = mac::make_model(g.protocol, sc.context);
    ASSERT_TRUE(made.ok()) << g.protocol;
    const auto model = std::move(made).take();
    core::EnergyDelayGame game(*model, sc.requirements);
    const auto outcome = game.solve();
    ASSERT_TRUE(outcome.ok()) << g.protocol;
    const auto& o = outcome.value();
    EXPECT_TRUE(bits_eq(o.p1.x[0], g.p1_x)) << g.protocol << " p1.x";
    EXPECT_TRUE(bits_eq(o.p1.energy, g.p1_e)) << g.protocol << " p1.E";
    EXPECT_TRUE(bits_eq(o.p1.latency, g.p1_l)) << g.protocol << " p1.L";
    EXPECT_TRUE(bits_eq(o.p2.x[0], g.p2_x)) << g.protocol << " p2.x";
    EXPECT_TRUE(bits_eq(o.p2.energy, g.p2_e)) << g.protocol << " p2.E";
    EXPECT_TRUE(bits_eq(o.p2.latency, g.p2_l)) << g.protocol << " p2.L";
    EXPECT_TRUE(bits_eq(o.nbs.x[0], g.nbs_x)) << g.protocol << " nbs.x";
    EXPECT_TRUE(bits_eq(o.nbs.energy, g.nbs_e)) << g.protocol << " nbs.E";
    EXPECT_TRUE(bits_eq(o.nbs.latency, g.nbs_l)) << g.protocol << " nbs.L";
    EXPECT_TRUE(bits_eq(o.nash_product, g.nash)) << g.protocol << " nash";
  }
}

TEST(ModelVersion, KV1EnvelopesMatchPreKV2Goldens) {
  const core::Scenario sc = core::Scenario::paper_default();
  for (const auto& g : kGoldens) {
    auto made = mac::make_model(g.protocol, sc.context);
    ASSERT_TRUE(made.ok()) << g.protocol;
    const auto env = core::protocol_envelope(*std::move(made).take());
    EXPECT_TRUE(bits_eq(env.e_min, g.env_e)) << g.protocol << " e_min";
    EXPECT_TRUE(bits_eq(env.l_min, g.env_l)) << g.protocol << " l_min";
  }
}

TEST(ModelVersion, CampaignFingerprintMatchesPreKV2Golden) {
  // The sim layer is version-agnostic; this pins that threading the flag
  // through the stack did not perturb a single simulated byte.
  sim::CampaignScenario cell;
  cell.name = "golden";
  cell.protocol = "X-MAC";
  cell.x = {0.9};
  cell.context.ring.depth = 3;
  cell.context.ring.density = 3.0;
  cell.context.fs = 0.01;
  cell.duration = 400.0;
  cell.scenario_seed = 42;
  sim::CampaignOptions copts;
  copts.replications = 2;
  copts.threads = 1;
  sim::Campaign campaign(copts);
  const auto results = campaign.run({cell});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(
      results[0].fingerprint(),
      "name=golden;protocol=X-MAC;reps=2;"
      "r0.power=0x1.0f5da19d6bcc1p-9;r0.delay=0x1.2fe532642eedep+1;"
      "r0.delivery=0x1.48p-1;r0.generated=128;r0.delivered=82;"
      "r0.frames=312529;r0.collisions=60492;r0.events=972793;"
      "r1.power=0x1.28f810b82c84fp-9;r1.delay=0x1.08de9f94d0b86p+1;"
      "r1.delivery=0x1.2492492492492p-1;r1.generated=133;r1.delivered=76;"
      "r1.frames=336987;r1.collisions=80562;r1.events=1045768;");
}

TEST(ModelVersion, ServiceKeysDistinguishVersions) {
  core::Scenario sc = core::Scenario::paper_default();
  const service::QueryOptions opts;

  const auto v1_ctx = service::context_key(sc.context);
  const auto v1_proto = service::protocol_key(sc, "X-MAC", opts);

  sc.context.model_version = mac::ModelVersion::kV2Queueing;
  const auto v2_ctx = service::context_key(sc.context);
  const auto v2_proto = service::protocol_key(sc, "X-MAC", opts);

  // No cross-version hit: both the deployment key and the per-protocol
  // cache key must split.
  EXPECT_NE(v1_ctx, v2_ctx);
  EXPECT_NE(v1_proto, v2_proto);
  EXPECT_NE(v1_proto.canonical, v2_proto.canonical);
}

TEST(ModelVersion, ServiceKeysDistinguishArrivalShape) {
  core::Scenario sc = core::Scenario::paper_default();
  const auto periodic = service::context_key(sc.context);

  sc.context.arrivals = net::ArrivalProcess::kPoisson;
  const auto poisson = service::context_key(sc.context);
  EXPECT_NE(periodic, poisson);

  sc.context.arrivals = net::ArrivalProcess::kBursty;
  sc.context.burst_factor = 8.0;
  const auto bursty8 = service::context_key(sc.context);
  EXPECT_NE(poisson, bursty8);

  sc.context.burst_factor = 16.0;
  EXPECT_NE(bursty8, service::context_key(sc.context));
}

TEST(ModelVersion, KV1BatchOutputsIgnoreArrivalShape) {
  // Under kV1 the arrival-shape knobs are inert: a bursty kV1 context
  // must produce bit-identical metrics to the periodic default.
  const core::Scenario sc = core::Scenario::paper_default();
  mac::ModelContext bursty_ctx = sc.context;
  bursty_ctx.arrivals = net::ArrivalProcess::kBursty;
  bursty_ctx.burst_factor = 8.0;
  for (const auto& name : mac::paper_protocols()) {
    auto base = mac::make_model(name, sc.context);
    auto bursty = mac::make_model(name, bursty_ctx);
    ASSERT_TRUE(base.ok() && bursty.ok()) << name;
    const auto a = std::move(base).take();
    const auto b = std::move(bursty).take();
    const auto x = a->params().midpoint();
    EXPECT_TRUE(bits_eq(a->energy(x), b->energy(x))) << name;
    EXPECT_TRUE(bits_eq(a->latency(x), b->latency(x))) << name;
    EXPECT_TRUE(bits_eq(a->feasibility_margin(x), b->feasibility_margin(x)))
        << name;
  }
}

}  // namespace
}  // namespace edb
