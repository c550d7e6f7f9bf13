#include "catalog/family.h"

#include <cinttypes>
#include <cstdio>
#include <type_traits>

// The hash, splitmix rounds and field encoders are util/'s shared
// definitions, which the campaign layer also uses, so the catalog and sim
// determinism contracts cannot drift apart.
#include "util/fingerprint.h"

namespace edb::catalog {

std::uint64_t scenario_stream_seed(std::string_view family,
                                   std::size_t index, std::uint64_t seed) {
  std::uint64_t h = fnv1a64(family);
  h = splitmix64(h ^ static_cast<std::uint64_t>(index));
  return splitmix64(h ^ seed);
}

std::string CatalogScenario::id() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/%zu@%" PRIx64, index, seed);
  return family + buf;
}

std::uint64_t CatalogScenario::sim_seed() const {
  // A second derivation step keeps the sim stream independent of the
  // generation stream (which generate() has already consumed from).
  return scenario_stream_seed(family, index, seed) ^ 0x51Dull;
}

std::string CatalogScenario::fingerprint() const {
  std::string out;
  out.reserve(1024);
  out += "family=" + family + ";";
  fingerprint_put_u64(out, "index", index);
  fingerprint_put_u64(out, "seed", seed);
  out += "radio=" + scenario.context.radio.name + ";";
  core::for_each_field(scenario, [&out](const char* name, const auto& v) {
    if constexpr (std::is_enum_v<std::remove_cvref_t<decltype(v)>>) {
      fingerprint_put_u64(out, name, static_cast<std::uint64_t>(v));
    } else {
      fingerprint_put(out, name, static_cast<double>(v));
    }
  });
  fingerprint_put(out, "sim.loss", sim.loss_probability);
  fingerprint_put(out, "sim.drift_ppm", sim.clock_drift_ppm);
  fingerprint_put(out, "sim.burst", sim.burst_factor);
  out += sim.poisson_arrivals ? "sim.arrivals=poisson;"
                              : "sim.arrivals=periodic;";
  return out;
}

ScenarioFamily::ScenarioFamily(std::string name, std::string description,
                               std::size_t size)
    : name_(std::move(name)),
      description_(std::move(description)),
      size_(size) {}

CatalogScenario ScenarioFamily::expand(std::size_t index,
                                       std::uint64_t seed) const {
  CatalogScenario out;
  out.family = name_;
  out.index = index;
  out.seed = seed;
  out.scenario = core::Scenario::paper_default();
  Rng rng(scenario_stream_seed(name_, index, seed));
  generate(index, rng, out.scenario, out.sim);
  return out;
}

}  // namespace edb::catalog
