// Validation atlas: simulation campaigns vs analytic model predictions
// over the whole scenario catalog.
//
// The frontier atlas (catalog/atlas.h) charts what the analytic oracle
// *promises*; this layer measures how much of that promise the
// discrete-event simulator *delivers*.  For every sim-capable catalog
// scenario it
//
//   1. derives a sim-scaled twin — the same deployment physics clamped to
//      a size and traffic rate the simulator can measure in seconds
//      (depth/density caps, an fs floor so enough packets flow, duration
//      sized for a target packet count per source),
//   2. picks a paper protocol (rotating by scenario index) and a feasible
//      operating point inside the analytic parameter box,
//   3. fans R replications through sim::Campaign, seeded by the
//      scenario's own SimProfile sim_seed() — every family, not just the
//      lossy/drift ones, so regeneration is seed-stable catalog-wide —
//      consuming the SimProfile knobs (loss probability, Poisson/bursty
//      arrivals) behaviourally, and
//   4. compares measured bottleneck power and deep-ring delay against
//      the analytic model evaluated at exactly the same context and
//      operating point, aggregating per-family relative-error tables
//      with Welford/CI statistics (util/stats.h).
//
// Clock drift is the one SimProfile knob the kernel does not model yet;
// drift scenarios still run (the knob is recorded with the row).
// Everything inherits the campaign determinism contract: the atlas is a
// pure function of (catalog, options) at any thread count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "sim/campaign.h"
#include "util/stats.h"

namespace edb::catalog {

// Scenarios expand from the catalog's kDefaultSeed, which also seeds the
// campaign streams.  The sim-scaled twin's shape caps are fixed
// (validation.cpp): they keep a replication in the sub-second range while
// preserving the deployment physics being validated.
struct ValidationOptions {
  int replications = 3;
  int threads = 4;          // campaign fan width; 0 = hardware threads
  std::size_t per_family_cap = 0;  // 0 = every scenario

  // Analytic fidelity the predictions are computed at.  kV1 reproduces
  // the pre-queueing atlas byte-for-byte; kV2Queueing evaluates (and
  // probes operating points with) the M/G/1-corrected models, whose
  // arrival-shape inputs the twin copies from the scenario's SimProfile —
  // exactly what the campaign simulates (mac/model.h ModelVersion).
  mac::ModelVersion model_version = mac::ModelVersion::kV1;
};

// The sim-scaled twin of one catalog scenario: what the campaign actually
// runs and what the analytic prediction is evaluated on.  `capable` is
// false when no feasible operating point exists for the twin (the
// scenario is skipped, not failed).
struct SimTwin {
  bool capable = false;
  std::string protocol;      // rotated paper protocol
  std::vector<double> x;     // feasible operating point in the twin's box
  double predicted_power = 0;    // model bottleneck power [W]
  double predicted_latency = 0;  // model worst-case e2e delay [s]
  sim::CampaignScenario campaign;  // ready to fan
};

// One validated scenario: prediction, measurement, and relative errors.
struct ValidationRow {
  std::string family;
  std::size_t index = 0;
  std::string protocol;
  double x0 = 0;                // operating point (all sims are 1-D)
  double predicted_power = 0;
  double measured_power = 0;    // campaign mean over replications
  double power_ci = 0;          // 95% CI half-width
  double power_rel_err = 0;
  double predicted_latency = 0;
  double measured_latency = 0;  // NaN when the deep ring delivered nothing
  double latency_ci = 0;
  double latency_rel_err = 0;   // NaN when measured_latency is NaN
  double delivery = 0;          // mean delivery ratio
  double clock_drift_ppm = 0;   // recorded, not simulated
  int replications = 0;
  std::uint64_t events = 0;     // kernel events across replications
  std::string fingerprint;      // campaign determinism fingerprint
};

// Per-family error aggregate over that family's validated rows.
struct FamilyValidation {
  std::string family;
  std::size_t scenarios = 0;  // validated rows
  std::size_t skipped = 0;    // not sim-capable at this scale
  Welford power_err;          // over |rel err| of bottleneck power
  Welford latency_err;        // over |rel err| of deep-ring delay
  Welford delivery;           // over delivery ratios
};

struct ValidationAtlas {
  std::vector<ValidationRow> rows;         // catalog order
  std::vector<FamilyValidation> families;  // registration order
  std::size_t simulated = 0;
  std::size_t skipped = 0;
  std::size_t replications = 0;  // total across rows
  std::uint64_t events = 0;      // total kernel events
};

// Derives the sim-scaled twin of one catalog scenario (pure in
// (scenario, options)).
SimTwin sim_twin(const CatalogScenario& scenario,
                 const ValidationOptions& options);

// Expands the catalog, fans all campaigns, assembles the atlas.
ValidationAtlas run_validation_atlas(const Catalog& catalog,
                                     const ValidationOptions& options);

// CSV dump of every validated row (for the CI artifact / plotting).
void write_validation_csv(std::ostream& out, const ValidationAtlas& atlas);

}  // namespace edb::catalog
