#include "service/key.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/scenario.h"
#include "mac/registry.h"
#include "util/rng.h"

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

// ------------------------------------------- differential: printf keys --
//
// The key format as printf wrote it: "%.9e" through snprintf, one
// scenario walk per key.  The builder must reproduce it byte for byte.

std::string printf_token(double v) {
  if (v == 0.0) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9e", v);
  for (char* c = buf; *c; ++c) {
    if (*c == ',') *c = '.';
  }
  return buf;
}

class PrintfKeyBuilder {
 public:
  void operator()(std::string_view name, double v) {
    (*this)(name, std::string_view(printf_token(v)));
  }
  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void operator()(std::string_view name, T v) {
    (*this)(name, std::string_view(std::to_string(static_cast<int>(v))));
  }
  void operator()(std::string_view name, std::string_view token) {
    canonical_.append(name).append("=").append(token).append(";");
  }
  QueryKey build() && { return {fnv1a64(canonical_), std::move(canonical_)}; }

 private:
  std::string canonical_;
};

QueryKey printf_key(const core::Scenario& s, const QueryOptions& opts,
                    std::string_view name, std::string_view value) {
  PrintfKeyBuilder b;
  core::for_each_field(s, b);
  b("opts.alpha", opts.alpha);
  b(name, value);
  return std::move(b).build();
}

// Random bit patterns over every exponent, random mantissas at everyday
// magnitudes, subnormals, and each side of the decades and of the
// 10-digit rounding ties.
std::vector<double> differential_doubles() {
  std::vector<double> out = {0.0, -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest()};
  const auto with_neighbours = [&](double v) {
    for (double x : {v, std::nextafter(v, 0.0), std::nextafter(v, 2 * v)}) {
      if (std::isfinite(x)) {
        out.push_back(x);
        out.push_back(-x);
      }
    }
  };
  for (int k = -324; k <= 308; ++k) {
    for (const char* mantissa : {"1", "5", "9.9999999995", "1.0000000005",
                                 "2.5000000005", "4.4999999995"}) {
      char text[48];
      std::snprintf(text, sizeof text, "%se%d", mantissa, k);
      with_neighbours(std::strtod(text, nullptr));
    }
  }
  constexpr std::uint64_t kMantissa = (1ULL << 52) - 1;
  for (std::uint64_t i = 0; out.size() < 4'200'000; ++i) {
    const std::uint64_t bits = splitmix64(i);
    const double raw = std::bit_cast<double>(bits);
    if (std::isfinite(raw)) out.push_back(raw);
    // Exponent within 2^±64 and a subnormal, same mantissa bits.
    const std::uint64_t exp = 1023 - 64 + (bits >> 56) % 129;
    out.push_back(std::bit_cast<double>((bits & (kMantissa | 1ULL << 63)) |
                                        exp << 52));
    out.push_back(std::bit_cast<double>(bits & kMantissa));
  }
  return out;
}

TEST(KeyDifferential, QuantizeTokenMatchesPrintfByteForByte) {
  const std::vector<double> doubles = differential_doubles();
  ASSERT_GE(doubles.size(), 4'000'000u);
  std::size_t differ = 0;
  for (double v : doubles) {
    const std::string got = quantize_token(v);
    const std::string want = printf_token(v);
    if (got != want && ++differ <= 10) {
      ADD_FAILURE() << std::hexfloat << v << ": " << got << " vs " << want;
    }
  }
  EXPECT_EQ(differ, 0u) << "of " << doubles.size() << " doubles";
}

TEST(KeyDifferential, ServedKeysMatchPrintfKeysOnEveryCatalogScenario) {
  const auto scenarios =
      catalog::Catalog::builtin().expand_all(catalog::kDefaultSeed);
  ASSERT_EQ(scenarios.size(), 252u);
  const std::vector<std::string> all = mac::registered_protocols();
  const std::vector<std::string> sets[] = {
      canonical_protocol_set({}).value(), canonical_protocol_set(all).value()};
  for (const auto& entry : scenarios) {
    for (double alpha : {0.5, 0.3}) {
      const QueryOptions opts{alpha};
      const KeyPrefix served(entry.scenario, opts);
      for (const auto& name : all) {
        const QueryKey want = printf_key(entry.scenario, opts, "protocol", name);
        EXPECT_EQ(served.protocol_key(name), want) << entry.id() << " " << name;
        EXPECT_EQ(protocol_key(entry.scenario, name, opts), want);
      }
      for (const auto& set : sets) {
        std::string joined;
        for (const auto& p : set) joined += (joined.empty() ? "" : ",") + p;
        const QueryKey want =
            printf_key(entry.scenario, opts, "protocols", joined);
        EXPECT_EQ(served.query_key(set), want) << entry.id() << " " << joined;
        EXPECT_EQ(query_key(entry.scenario, set, opts), want);
      }
      PrintfKeyBuilder ctx;
      mac::for_each_field(entry.scenario.context, ctx);
      EXPECT_EQ(context_key(entry.scenario.context), std::move(ctx).build());
    }
  }
}

}  // namespace
}  // namespace edb::service
