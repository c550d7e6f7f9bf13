// Scenario families: parameterized generators over the deployment space.
//
// A ScenarioFamily describes one region of the energy/delay design space
// (dense rings, deep chains, bursty traffic, lossy channels, ...) and
// expands into concrete core::Scenario instances on demand.  Expansion is
// governed by the determinism contract (DESIGN.md §5):
//
//   expand(index, seed) is a pure function of (family name, index, seed).
//
// Every expansion derives its own util::rng stream from exactly that
// triple — no shared generator state — so a scenario regenerates
// bit-identically whatever the call order, batch composition or thread
// interleaving.  `CatalogScenario::fingerprint()` serializes every field
// with hex-float formatting so tests can assert byte identity.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/scenario.h"
#include "util/rng.h"

namespace edb::catalog {

// Workload knobs the analytic core::Scenario cannot carry; consumed by
// simulator-side drivers (sim::Channel::set_loss_probability, the traffic
// generator).  Analytic expansions fold their first-order effect into the
// scenario (e.g. loss inflates fs by the expected retransmissions) and
// record the exact knob here for simulation cross-checks.
struct SimProfile {
  double loss_probability = 0.0;  // per-reception independent drop
  double clock_drift_ppm = 0.0;   // per-node oscillator skew
  double burst_factor = 1.0;      // peak-to-mean generation ratio
  bool poisson_arrivals = false;  // exponential inter-generation times
};

// One concrete catalog entry: the scenario plus its provenance, so any
// consumer can regenerate it from the (family, index, seed) triple alone.
struct CatalogScenario {
  std::string family;
  std::size_t index = 0;
  std::uint64_t seed = 0;
  core::Scenario scenario;
  SimProfile sim;

  // Short stable identifier, e.g. "dense-ring/17@1f2e...".
  std::string id() const;

  // Seed for simulator-side randomness (topology jitter, channel loss
  // stream): pass to sim::build_ring_corridor / Channel::set_loss_
  // probability so sim runs regenerate as deterministically as the
  // scenario itself.
  std::uint64_t sim_seed() const;

  // Canonical byte-exact serialization of every field (doubles rendered
  // as hex floats; the scenario through core::for_each_field), the unit
  // of the determinism contract: two expansions are "the same scenario"
  // iff their fingerprints match byte for byte.
  std::string fingerprint() const;
};

// The RNG stream key of the determinism contract: a splitmix/FNV mix of
// (family, index, seed).  Exposed so tests can pin the derivation.
std::uint64_t scenario_stream_seed(std::string_view family,
                                   std::size_t index, std::uint64_t seed);

class ScenarioFamily {
 public:
  ScenarioFamily(std::string name, std::string description,
                 std::size_t size);
  virtual ~ScenarioFamily() = default;

  const std::string& name() const { return name_; }
  const std::string& description() const { return description_; }
  // Number of scenarios `expand_all` style consumers draw.  Indices are
  // meaningful beyond size(): expand(i, seed) is defined for every i and
  // stable under catalog rescaling.
  std::size_t size() const { return size_; }

  // The determinism contract's entry point: pure in (name(), index, seed).
  CatalogScenario expand(std::size_t index, std::uint64_t seed) const;

 protected:
  // Fills in the scenario (starting from Scenario::paper_default()) and
  // the sim profile.  `rng` is the private stream of this (index, seed);
  // implementations draw from it in a fixed order and from nothing else.
  virtual void generate(std::size_t index, Rng& rng, core::Scenario& sc,
                        SimProfile& sim) const = 0;

 private:
  std::string name_;
  std::string description_;
  std::size_t size_;
};

}  // namespace edb::catalog
