// Empty-bargaining-set certificate (EnergyDelayGame::solve_weighted,
// DESIGN.md §2 "Empty bargaining set").
//
// When the players' own optima already miss the other requirement —
// e_best above the energy cap or l_best above the latency cap — the (P4)
// feasible set is provably empty, and the pipeline answers the (P3)
// infeasibility without running the P4 solver.  These tests pin three
// properties of that shortcut:
//
//   * it is invisible in the output: a fingerprint of every cell of a
//     catalog x protocol x requirement-ladder table is byte-identical to
//     the one captured from the tree before the certificate existed;
//   * it is sound: wherever it fires, a dense lattice scan finds no point
//     inside the (P4) set;
//   * it answers before any P4 stage: infeasibility outranks the eval
//     budget (DESIGN.md §10) even when P1 + P2 alone exhaust it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/game_framework.h"
#include "engine/fan.h"
#include "mac/registry.h"
#include "outcome_fingerprint.h"

namespace edb {
namespace {

// The table: two scenarios of every builtin catalog family, each under
// the four protocols and two 16-rung requirement ladders (0.25x .. 2.5x
// of the deployment's own Lmax, then of its Ebudget).
constexpr std::size_t kPerFamily = 2;
constexpr int kRungs = 16;
const char* const kProtocols[] = {"X-MAC", "DMAC", "LMAC", "B-MAC"};

// FNV-1a over every cell's rendering, captured on the last commit without
// the certificate, and re-captured when the alpha = 1/2 Nash objective
// moved from pow to sqrt (18 cells moved inside the flat zone).  It holds
// in optimized, sanitizer and AVX2 builds alike (-ffp-contract=off plus
// the util/simd.h lane contract).
constexpr std::uint64_t kParentFingerprint = 0xb35645e0723cb1bfULL;

// The certificate's margin (the same one dual_solve's macro_better uses).
constexpr double kMargin = 1e-6;

struct Cell {
  std::size_t model = 0;  // index into Table::models
  core::AppRequirements req;
};

struct CellResult {
  std::optional<Expected<core::BargainingOutcome>> outcome;
  // The players' optima when both subproblems succeed (from the outcome,
  // or re-solved for a P3-infeasible cell).
  std::optional<core::OperatingPoint> p1, p2;
};

struct Table {
  std::vector<std::unique_ptr<mac::AnalyticMacModel>> models;
  std::vector<Cell> cells;
  std::vector<CellResult> results;
};

double rung(double base, int r) {
  return base * 0.25 * std::pow(10.0, r / (kRungs - 1.0));
}

bool p3_infeasible(const Expected<core::BargainingOutcome>& o) {
  return !o.ok() && o.error().code == ErrorCode::kInfeasible &&
         o.error().message.find("(P3)") != std::string::npos;
}

const Table& table() {
  static const Table t = [] {
    Table t;
    const auto catalog = catalog::Catalog::builtin();
    for (const auto& entry :
         catalog.expand_all(catalog::kDefaultSeed, kPerFamily)) {
      const core::Scenario& sc = entry.scenario;
      for (const char* name : kProtocols) {
        auto made = mac::make_model(name, sc.context);
        EXPECT_TRUE(made.ok()) << entry.id() << " " << name;
        if (!made.ok()) continue;
        t.models.push_back(std::move(made).take());
        const std::size_t m = t.models.size() - 1;
        for (int r = 0; r < kRungs; ++r) {
          Cell c{m, sc.requirements};
          c.req.l_max = rung(sc.requirements.l_max, r);
          t.cells.push_back(c);
        }
        for (int r = 0; r < kRungs; ++r) {
          Cell c{m, sc.requirements};
          c.req.e_budget = rung(sc.requirements.e_budget, r);
          t.cells.push_back(c);
        }
      }
    }
    t.results.resize(t.cells.size());
    engine::Fan(4).run(t.cells.size(), [&](std::size_t i) {
      const Cell& c = t.cells[i];
      core::EnergyDelayGame game(*t.models[c.model], c.req);
      CellResult& out = t.results[i];
      out.outcome.emplace(game.solve());
      if (out.outcome->ok()) {
        out.p1 = out.outcome->value().p1;
        out.p2 = out.outcome->value().p2;
      } else if (p3_infeasible(*out.outcome)) {
        out.p1 = game.solve_p1().value();
        out.p2 = game.solve_p2().value();
      }
    });
    return t;
  }();
  return t;
}

// The (P4) caps and the certificate's condition, restated from the
// paper's definitions: P4 bargains below (min(Ebudget, Eworst),
// min(Lmax, Lworst)).
struct Caps {
  double e_cap, l_cap;
};
Caps caps_of(const core::OperatingPoint& p1, const core::OperatingPoint& p2,
             const core::AppRequirements& req) {
  return {std::min(req.e_budget, p2.energy), std::min(req.l_max, p1.latency)};
}
bool certified(const CellResult& r, const core::AppRequirements& req) {
  if (!r.p1 || !r.p2) return false;
  const Caps c = caps_of(*r.p1, *r.p2, req);
  return r.p1->energy > c.e_cap * (1 + kMargin) ||
         r.p2->latency > c.l_cap * (1 + kMargin);
}

TEST(P3Certificate, TableOutputMatchesParentFingerprint) {
  const Table& t = table();
  std::uint64_t h = kOutcomeFingerprintSeed;
  for (const CellResult& r : t.results) h = fold_outcome(h, *r.outcome);
  char got[32];
  std::snprintf(got, sizeof got, "0x%016" PRIx64, h);
  EXPECT_EQ(h, kParentFingerprint) << "table fingerprint " << got << " over "
                                   << t.cells.size() << " cells";
}

TEST(P3Certificate, FiresOnlyWhereTheLatticeFindsNoAgreement) {
  const Table& t = table();
  int fired = 0;
  for (std::size_t i = 0; i < t.cells.size(); ++i) {
    const CellResult& r = t.results[i];
    const core::AppRequirements& req = t.cells[i].req;
    if (!certified(r, req)) continue;
    ++fired;
    const mac::AnalyticMacModel& model = *t.models[t.cells[i].model];
    // A certified cell answers the (P3) error (a corner agreement within
    // 1e-9 can never pass a 1e-6 certificate).
    EXPECT_TRUE(p3_infeasible(*r.outcome))
        << model.name() << " cell " << i << ": "
        << (r.outcome->ok() ? "solved" : r.outcome->error().to_string());

    // Independent soundness scan over the whole box: 4097 points on a
    // 1-D model, 257^2 on a 2-D one.
    const Caps caps = caps_of(*r.p1, *r.p2, req);
    const auto lo = model.params().lower();
    const auto hi = model.params().upper();
    const std::size_t dim = lo.size();
    ASSERT_LE(dim, 2u);
    const std::size_t per_axis = dim == 1 ? 4097 : 257;
    std::size_t total = 1;
    for (std::size_t d = 0; d < dim; ++d) total *= per_axis;
    std::vector<double> x(dim);
    for (std::size_t k = 0; k < total; ++k) {
      std::size_t rest = k;
      for (std::size_t d = 0; d < dim; ++d) {
        const double u = static_cast<double>(rest % per_axis) /
                         static_cast<double>(per_axis - 1);
        rest /= per_axis;
        x[d] = lo[d] + (hi[d] - lo[d]) * u;
      }
      const bool inside = model.feasibility_margin(x) > 0.0 &&
                          model.energy(x) < caps.e_cap &&
                          model.latency(x) < caps.l_cap;
      ASSERT_FALSE(inside) << model.name() << " cell " << i
                           << ": lattice point inside the certified-empty "
                              "bargaining set";
    }
  }
  // Not vacuous: the ladders cross the P3 band of every paper model.
  std::printf("certificate fired on %d of %zu cells\n", fired,
              t.cells.size());
  EXPECT_GE(fired, 50);
}

TEST(P3Certificate, InfeasibilityOutranksAnExhaustedBudget) {
  const Table& t = table();
  std::size_t cell = t.cells.size();
  for (std::size_t i = 0; i < t.cells.size(); ++i) {
    if (certified(t.results[i], t.cells[i].req) &&
        t.models[t.cells[i].model]->params().dim() == 1) {
      cell = i;
      break;
    }
  }
  ASSERT_LT(cell, t.cells.size());
  core::EnergyDelayGame game(*t.models[t.cells[cell].model],
                             t.cells[cell].req);

  // Smallest eval budget under which `solve` does not answer
  // kDeadlineExceeded.
  auto threshold = [&](auto solve) {
    long long lo = 1, hi = 1LL << 24;
    while (lo < hi) {
      const long long mid = lo + (hi - lo) / 2;
      game.set_control(core::SolveControl{nullptr, mid});
      const auto r = solve();
      if (!r.ok() && r.error().code == ErrorCode::kDeadlineExceeded) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const long long p1_pre = threshold([&] { return game.solve_p1(); });
  const long long p2_pre = threshold([&] { return game.solve_p2(); });
  const long long pipeline = threshold([&] { return game.solve(); });

  game.set_control(core::SolveControl{nullptr, pipeline});
  const auto at = game.solve();
  EXPECT_TRUE(p3_infeasible(at))
      << (at.ok() ? "solved" : at.error().to_string());

  // A subproblem passes its last budget check before its anchored polish,
  // so the pipeline's threshold is P1 in full plus P2 up to that check:
  // the two standalone thresholds plus P1's polish (at most 17 points x
  // 10 rounds on a 1-D model).  Any P4 stage would add its 3 x 65-point
  // coarse scan and P2's polish on top — the certificate answered with
  // P1 + P2 alone already over the budget.
  EXPECT_GT(pipeline, p1_pre + p2_pre);
  EXPECT_LE(pipeline, p1_pre + p2_pre + 17 * 10);
}

}  // namespace
}  // namespace edb
