// edb_game as an independent third verifier of the production (P3)/(P4)
// solve.
//
// The production pipeline (core/game_framework.h) maximises the Nash
// product with a descent over the MAC parameter box.  game::nash_bargaining
// knows nothing of MAC models or solvers: it maximises the same product
// over a finite utility sample.  Feeding it the protocol's sampled E-L
// frontier, mapped to utilities (Eworst - E, Lworst - L) with the
// disagreement point at the origin and clipped to the (P3) caps, ties the
// paper's axiomatic NBS to the solver's answer:
//
//   * no sampled agreement beats the solver's product (beyond rounding):
//     finite <= prod * (1 + 1e-9);
//   * the sample comes within the frontier's resolution of it:
//     finite >= prod * (1 - 1e-4);
//   * mixing two sampled agreements (game::nash_bargaining_hull, Nash's
//     convex S) does not beat it either: on these cells the solver's
//     deterministic agreement is also the convexified NBS.
//
// Cells the pipeline certifies (P3)-infeasible (an empty bargaining set)
// have no product to compare and are skipped.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/game_framework.h"
#include "core/scenario.h"
#include "game/bargaining.h"
#include "game/nbs.h"
#include "mac/registry.h"

namespace edb {
namespace {

bool p3_infeasible(const Expected<core::BargainingOutcome>& r) {
  return !r.ok() && r.error().code == ErrorCode::kInfeasible &&
         r.error().to_string().find("(P3)") != std::string::npos;
}

TEST(GameNbsVerifier, SampledNashProductBracketsTheSolverProduct) {
  const core::Scenario scenario = core::Scenario::paper_default();
  int verified = 0;
  for (const char* protocol : {"X-MAC", "DMAC", "LMAC"}) {
    const auto model = mac::make_model(protocol, scenario.context).take();
    for (double scale : {0.5, 1.0, 2.0}) {
      core::AppRequirements req = scenario.requirements;
      req.l_max *= scale;
      SCOPED_TRACE(std::string(protocol) + " Lmax x" + std::to_string(scale));

      const core::EnergyDelayGame game(*model, req);
      const auto solved = game.solve();
      if (p3_infeasible(solved)) continue;
      ASSERT_TRUE(solved.ok()) << solved.error().to_string();
      const double prod = solved->nash_product;
      ASSERT_GT(prod, 0.0);

      std::vector<game::UtilityPoint> utilities;
      for (const auto& p : game.frontier(2048)) {
        if (p.f1 > req.e_budget || p.f2 > req.l_max) continue;
        utilities.push_back(
            {solved->e_worst() - p.f1, solved->l_worst() - p.f2});
      }
      const game::BargainingProblem problem(utilities, {0.0, 0.0});
      const auto sampled = game::nash_bargaining(problem);
      ASSERT_TRUE(sampled.ok()) << sampled.error().to_string();
      const double finite = sampled->nash_product;

      EXPECT_LE(finite, prod * (1 + 1e-9));
      EXPECT_GE(finite, prod * (1 - 1e-4));
      const auto hull = game::nash_bargaining_hull(problem);
      ASSERT_TRUE(hull.ok()) << hull.error().to_string();
      EXPECT_LE(hull->nash_product, prod * (1 + 1e-9));
      ++verified;
    }
  }
  // LMAC at x0.5 is the only (P3)-infeasible cell of the nine.
  EXPECT_EQ(verified, 8);
}

}  // namespace
}  // namespace edb
