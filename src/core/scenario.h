// Deployment scenario: model context + application requirements.
//
// A Scenario bundles everything the paper's framework takes as input: the
// deployment (radio, packet formats, ring topology, sampling rate) and the
// application requirements (energy budget per node, maximum tolerated e2e
// delay).  `paper_default()` is the calibration behind the reproduced
// figures — see DESIGN.md §6 for how its constants were chosen.  Families
// of derived scenarios live one layer up in catalog/catalog.h.
#pragma once

#include <type_traits>

#include "mac/model.h"
#include "util/error.h"

namespace edb::core {

// The application requirements of the paper's §2: the per-node energy
// budget Ebudget [J per accounting epoch] and the maximum end-to-end packet
// delay Lmax [s].
struct AppRequirements {
  double e_budget = 0.06;
  double l_max = 6.0;

  Expected<bool> validate() const;
};

struct Scenario {
  mac::ModelContext context;
  AppRequirements requirements;

  Expected<bool> validate() const;

  // The calibration used for the paper's figures: CC2420 radio, 32 B
  // payloads, D = 5 rings, density C = 7 (200 nodes), fs = 6.5e-5 Hz, 100 s
  // energy epoch, Ebudget = 0.06 J, Lmax = 6 s.
  static Scenario paper_default();
};

// The scenario walk: the deployment walk (mac::for_each_field), then the
// two requirements.  This is the field list the cache key and the QUERY
// wire body carry, in their order.
template <typename S, typename F>
  requires std::is_same_v<std::remove_const_t<S>, Scenario>
void for_each_field(S& s, F&& f) {
  mac::for_each_field(s.context, f);
  f("req.e_budget", s.requirements.e_budget);
  f("req.l_max", s.requirements.l_max);
}

}  // namespace edb::core
