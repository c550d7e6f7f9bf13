#include "service/key.h"

#include <gtest/gtest.h>

#include <utility>

#include "core/scenario.h"

namespace edb::service {
namespace {

core::Scenario base() { return core::Scenario::paper_default(); }

TEST(QuantizeTest, FloatNoiseCollides) {
  EXPECT_EQ(quantize_token(0.06), quantize_token(0.06 * (1.0 + 1e-13)));
  EXPECT_EQ(quantize_token(6.0), quantize_token(6.0 - 6e-13));
  EXPECT_EQ(quantize_token(0.0), quantize_token(-0.0));
}

TEST(QuantizeTest, ValueDifferencesSurvive) {
  EXPECT_NE(quantize_token(0.06), quantize_token(0.05));
  EXPECT_NE(quantize_token(6.0), quantize_token(6.0001));
  EXPECT_NE(quantize_token(1.0), quantize_token(-1.0));
}

TEST(Fnv1aTest, StableAndDiscriminating) {
  // Pinned value: keys may be logged/persisted, so the hash must not
  // drift across platforms or refactors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_EQ(fnv1a64("req.l_max=6;"), fnv1a64("req.l_max=6;"));
}

TEST(ProtocolSetTest, SpellingAndOrderInsensitive) {
  auto a = canonical_protocol_set({"xmac", "DMAC"});
  auto b = canonical_protocol_set({"D-MAC", "X-MAC"});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ((*a)[0], "DMAC");
  EXPECT_EQ((*a)[1], "X-MAC");
}

TEST(ProtocolSetTest, DedupesAndDefaults) {
  auto dup = canonical_protocol_set({"X-MAC", "xmac", "x mac"});
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->size(), 1u);

  auto def = canonical_protocol_set({});
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def->size(), 3u);  // the paper's three
  // The default set is canonical too: any spelling of the same three
  // protocols lands on the identical (sorted) order.
  EXPECT_EQ(*def, *canonical_protocol_set({"xmac", "dmac", "lmac"}));
}

TEST(ProtocolSetTest, UnknownProtocolIsAnError) {
  auto r = canonical_protocol_set({"T-MAC"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
}

TEST(QueryKeyTest, NoiseEquivalentScenariosCollide) {
  core::Scenario a = base();
  core::Scenario b = base();
  b.requirements.l_max *= 1.0 + 1e-13;
  b.context.fs *= 1.0 - 1e-14;
  EXPECT_EQ(protocol_key(a, "X-MAC", {}), protocol_key(b, "X-MAC", {}));
}

TEST(QueryKeyTest, ValueAffectingFieldsSplit) {
  const core::Scenario a = base();
  const QueryKey ak = protocol_key(a, "X-MAC", {});

  // Every deployment field and both requirements, listed by hand rather
  // than through the walk, so a field the walk forgets splits nothing
  // and fails here.
  using Edit = void (*)(core::Scenario&);
  const std::pair<const char*, Edit> edits[] = {
      {"p_tx", [](core::Scenario& s) { s.context.radio.p_tx *= 1.01; }},
      {"p_rx", [](core::Scenario& s) { s.context.radio.p_rx *= 1.01; }},
      {"p_sleep", [](core::Scenario& s) { s.context.radio.p_sleep *= 1.01; }},
      {"bitrate", [](core::Scenario& s) { s.context.radio.bitrate *= 1.01; }},
      {"t_startup",
       [](core::Scenario& s) { s.context.radio.t_startup *= 1.01; }},
      {"t_turnaround",
       [](core::Scenario& s) { s.context.radio.t_turnaround *= 1.01; }},
      {"t_cca", [](core::Scenario& s) { s.context.radio.t_cca *= 1.01; }},
      {"payload",
       [](core::Scenario& s) { s.context.packet.payload_bytes += 1; }},
      {"header", [](core::Scenario& s) { s.context.packet.header_bytes += 1; }},
      {"ack", [](core::Scenario& s) { s.context.packet.ack_bytes += 1; }},
      {"strobe", [](core::Scenario& s) { s.context.packet.strobe_bytes += 1; }},
      {"ctrl", [](core::Scenario& s) { s.context.packet.ctrl_bytes += 1; }},
      {"sync", [](core::Scenario& s) { s.context.packet.sync_bytes += 1; }},
      {"depth", [](core::Scenario& s) { s.context.ring.depth = 6; }},
      {"density", [](core::Scenario& s) { s.context.ring.density += 1; }},
      {"fs", [](core::Scenario& s) { s.context.fs *= 1.01; }},
      {"energy_epoch", [](core::Scenario& s) { s.context.energy_epoch = 50; }},
      {"arrivals",
       [](core::Scenario& s) {
         s.context.arrivals = net::ArrivalProcess::kPoisson;
       }},
      {"jitter_frac", [](core::Scenario& s) { s.context.jitter_frac = 0.2; }},
      {"burst_factor",
       [](core::Scenario& s) { s.context.burst_factor = 2.0; }},
      {"model_version",
       [](core::Scenario& s) {
         s.context.model_version = mac::ModelVersion::kV2Queueing;
       }},
      {"e_budget", [](core::Scenario& s) { s.requirements.e_budget = 0.05; }},
      {"l_max", [](core::Scenario& s) { s.requirements.l_max = 5.0; }},
  };
  for (const auto& [name, edit] : edits) {
    core::Scenario b = base();
    edit(b);
    EXPECT_NE(ak, protocol_key(b, "X-MAC", {})) << name;
  }

  EXPECT_NE(ak, protocol_key(a, "DMAC", {}));
  EXPECT_NE(protocol_key(a, "X-MAC", QueryOptions{0.5}),
            protocol_key(a, "X-MAC", QueryOptions{0.7}));
}

TEST(QueryKeyTest, RadioDisplayNameDoesNotParticipate) {
  core::Scenario a = base();
  core::Scenario b = base();
  b.context.radio.name = "same constants, different label";
  EXPECT_EQ(protocol_key(a, "X-MAC", {}), protocol_key(b, "X-MAC", {}));
}

TEST(QueryKeyTest, WholeQueryKeyCoversProtocolSet) {
  core::Scenario s = base();
  const auto one = canonical_protocol_set({"X-MAC"}).value();
  const auto two = canonical_protocol_set({"X-MAC", "DMAC"}).value();
  EXPECT_NE(query_key(s, one, {}), query_key(s, two, {}));
  EXPECT_EQ(query_key(s, two, {}),
            query_key(s, canonical_protocol_set({"dmac", "xmac"}).value(),
                      {}));
}

TEST(QueryKeyTest, CanonicalFormIsReadable) {
  const auto key = protocol_key(base(), "X-MAC", {});
  EXPECT_NE(key.canonical.find("req.l_max="), std::string::npos);
  EXPECT_NE(key.canonical.find("protocol=X-MAC;"), std::string::npos);
  EXPECT_EQ(key.hash, fnv1a64(key.canonical));
}

TEST(QueryKeyTest, ContextKeyIgnoresRequirements) {
  core::Scenario a = base();
  core::Scenario b = base();
  b.requirements.l_max = 2.0;
  EXPECT_EQ(context_key(a.context), context_key(b.context));
  core::Scenario c = base();
  c.context.fs *= 2.0;
  EXPECT_NE(context_key(a.context), context_key(c.context));
}

// Differential pins of the key format: the canonical strings and hashes
// of paper_default()'s three keys as the hand-written field list built
// them, before the keys came from the deployment walk
// (mac::for_each_field).  A change to any field name, order or token
// format moves these, and would split every persisted key.
constexpr const char* kPaperContext =
    "radio.p_tx=5.220000000e-02;"
    "radio.p_rx=5.640000000e-02;"
    "radio.p_sleep=3.000000000e-06;"
    "radio.bitrate=2.500000000e+05;"
    "radio.t_startup=5.000000000e-04;"
    "radio.t_turnaround=2.000000000e-04;"
    "radio.t_cca=3.000000000e-04;"
    "packet.payload=3.200000000e+01;"
    "packet.header=1.600000000e+01;"
    "packet.ack=1.000000000e+01;"
    "packet.strobe=1.000000000e+01;"
    "packet.ctrl=1.200000000e+01;"
    "packet.sync=1.600000000e+01;"
    "ring.depth=5;"
    "ring.density=7.000000000e+00;"
    "fs=6.500000000e-05;"
    "energy_epoch=1.000000000e+02;"
    "arrivals=0;"
    "jitter_frac=1.000000000e-01;"
    "burst_factor=1.000000000e+00;"
    "model_version=0;";
constexpr const char* kPaperRequirementsAndAlpha =
    "req.e_budget=6.000000000e-02;"
    "req.l_max=6.000000000e+00;"
    "opts.alpha=5.000000000e-01;";

TEST(KeyGoldenTest, PaperDefaultKeysArePinned) {
  const core::Scenario s = base();
  const QueryKey ctx = context_key(s.context);
  EXPECT_EQ(ctx.canonical, kPaperContext);
  EXPECT_EQ(ctx.hash, 0x2e2fbde87c23d4ebULL);

  const QueryKey proto = protocol_key(s, "X-MAC", QueryOptions{0.5});
  EXPECT_EQ(proto.canonical, std::string(kPaperContext) +
                                 kPaperRequirementsAndAlpha +
                                 "protocol=X-MAC;");
  EXPECT_EQ(proto.hash, 0x0f20324c177ea1bbULL);

  const QueryKey query =
      query_key(s, canonical_protocol_set({}).value(), QueryOptions{});
  EXPECT_EQ(query.canonical, std::string(kPaperContext) +
                                 kPaperRequirementsAndAlpha +
                                 "protocols=DMAC,LMAC,X-MAC;");
  EXPECT_EQ(query.hash, 0xe927e6c167e88830ULL);
}

}  // namespace
}  // namespace edb::service
