// Phase-I feasibility certificate for (P1) and (P2) (dual_solve,
// DESIGN.md §2 "Infeasible subproblems").
//
// When kDescent's coarse scan finds no feasible lattice point, the solve
// first minimises the capped metric (L for P1, E for P2) over the
// protocol's own feasible set.  A minimum that is not strictly below the
// cap answers the subproblem's infeasibility at once; only a reachable cap
// (a narrow feasible sliver the coarse lattice stepped over) still runs
// the exterior-penalty multistart.  These tests pin three properties of
// that certificate:
//
//   * it is invisible in the output: a fingerprint of every cell of a
//     catalog x protocol x requirement-ladder table is byte-identical to
//     the one captured from the tree before the certificate existed;
//   * it is sound: wherever it refuses a subproblem, a dense lattice scan
//     finds no point with a positive margin strictly below the cap;
//   * it is not vacuous: it refuses many cells of the table, and at least
//     one sliver cell still reaches the penalty multistart and solves.
#include <gtest/gtest.h>

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
#include "obs/metrics.h"
#include "outcome_fingerprint.h"

namespace edb {
namespace {

// The table: two scenarios of every builtin catalog family, each under
// every registered protocol and two 16-rung ladders around the protocol's
// envelope — Lmax at multiples of l_min, then Ebudget at multiples of
// e_min, the other requirement at the deployment's own value.  The rungs
// below 1 are infeasible subproblems; the ones just above 1 leave a
// feasible sliver narrower than the coarse scan's lattice.
constexpr std::size_t kPerFamily = 2;
constexpr double kRungs[] = {0.5,   0.8,  0.9,  0.97, 0.99, 0.999,
                             1.0001, 1.001, 1.003, 1.01, 1.03, 1.1,
                             1.3,   1.6,  2.0,  3.0};

// FNV-1a over every cell's rendering, captured on the last commit without
// the certificate, and re-captured when the alpha = 1/2 Nash objective
// moved from pow to sqrt (3 cells moved inside the flat zone).  It holds
// in optimized and Debug+ASan builds alike.
constexpr std::uint64_t kParentFingerprint = 0x7aa6422d4d60460fULL;

struct Cell {
  std::size_t model = 0;  // index into Table::models
  core::AppRequirements req;
};

enum class Capped { kLatency, kEnergy };  // the refused subproblem's cap

struct CellResult {
  std::optional<Expected<core::BargainingOutcome>> outcome;
  // Solver counters advanced by the cell's own solve.
  bool certified = false;  // phase I refused its P1 or P2
  bool fallback = false;   // some subproblem ran the penalty multistart
};

struct Table {
  std::vector<std::unique_ptr<mac::AnalyticMacModel>> models;
  std::vector<Cell> cells;
  std::vector<CellResult> results;
};

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

bool infeasible_in(const Expected<core::BargainingOutcome>& o,
                   const char* problem) {
  return !o.ok() && o.error().code == ErrorCode::kInfeasible &&
         o.error().message.find(problem) != std::string::npos;
}

const Table& table() {
  static const Table t = [] {
    Table t;
    const auto catalog = catalog::Catalog::builtin();
    for (const auto& entry :
         catalog.expand_all(catalog::kDefaultSeed, kPerFamily)) {
      const core::Scenario& sc = entry.scenario;
      for (const auto& name : mac::registered_protocols()) {
        auto made = mac::make_model(name, sc.context);
        EXPECT_TRUE(made.ok()) << entry.id() << " " << name;
        if (!made.ok()) continue;
        const core::ProtocolEnvelope env =
            core::protocol_envelope(*made.value());
        if (!std::isfinite(env.l_min) || !std::isfinite(env.e_min)) {
          ADD_FAILURE() << entry.id() << " " << name
                        << ": no margin-feasible point";
          continue;
        }
        t.models.push_back(std::move(made).take());
        const std::size_t m = t.models.size() - 1;
        for (double k : kRungs) {
          Cell c{m, sc.requirements};
          c.req.l_max = k * env.l_min;
          t.cells.push_back(c);
        }
        for (double k : kRungs) {
          Cell c{m, sc.requirements};
          c.req.e_budget = k * env.e_min;
          t.cells.push_back(c);
        }
      }
    }
    // Serial: the solver counters are process-wide, and each cell's path
    // is read from their deltas around its own solve.
    t.results.resize(t.cells.size());
    for (std::size_t i = 0; i < t.cells.size(); ++i) {
      const Cell& c = t.cells[i];
      core::EnergyDelayGame game(*t.models[c.model], c.req);
      const std::uint64_t certified = counter("solver.phase1_certified");
      const std::uint64_t fallbacks = counter("solver.penalty_fallbacks");
      CellResult& out = t.results[i];
      out.outcome.emplace(game.solve());
      out.certified = counter("solver.phase1_certified") != certified;
      out.fallback = counter("solver.penalty_fallbacks") != fallbacks;
    }
    return t;
  }();
  return t;
}

TEST(Phase1Certificate, TableOutputMatchesParentFingerprint) {
  const Table& t = table();
  std::uint64_t h = kOutcomeFingerprintSeed;
  for (const CellResult& r : t.results) h = fold_outcome(h, *r.outcome);
  char got[32];
  std::snprintf(got, sizeof got, "0x%016" PRIx64, h);
  EXPECT_EQ(h, kParentFingerprint)
      << "table fingerprint " << got << " over " << t.cells.size()
      << " cells";
}

// Dense scan of the whole box — 4097 points on a 1-D model, 257^2 on a
// 2-D one — for a margin-feasible point strictly below `cap` on the
// capped metric.
bool lattice_reaches_cap(const mac::AnalyticMacModel& model, Capped capped,
                         double cap) {
  const auto lo = model.params().lower();
  const auto hi = model.params().upper();
  const std::size_t dim = lo.size();
  EXPECT_LE(dim, 2u);
  const std::size_t per_axis = dim == 1 ? 4097 : 257;
  std::size_t total = 1;
  for (std::size_t d = 0; d < dim; ++d) total *= per_axis;
  std::vector<double> xs(total * dim);
  for (std::size_t k = 0; k < total; ++k) {
    std::size_t rest = k;
    for (std::size_t d = 0; d < dim; ++d) {
      const double u = static_cast<double>(rest % per_axis) /
                       static_cast<double>(per_axis - 1);
      rest /= per_axis;
      xs[k * dim + d] = lo[d] + (hi[d] - lo[d]) * u;
    }
  }
  std::vector<double> metric(total), margin(total);
  model.evaluate_batch(xs.data(), total,
                       capped == Capped::kEnergy ? metric.data() : nullptr,
                       capped == Capped::kLatency ? metric.data() : nullptr,
                       margin.data());
  for (std::size_t k = 0; k < total; ++k) {
    if (margin[k] > 0.0 && metric[k] < cap) return true;
  }
  return false;
}

TEST(Phase1Certificate, RefusesOnlyWhereTheLatticeFindsNoFeasiblePoint) {
  const Table& t = table();
  struct Refusal {
    std::size_t cell;
    Capped capped;
  };
  std::vector<Refusal> refusals;
  for (std::size_t i = 0; i < t.cells.size(); ++i) {
    const CellResult& r = t.results[i];
    if (!r.certified) continue;
    // A certificate ends the pipeline with that subproblem's error.
    const bool p1 = infeasible_in(*r.outcome, "(P1)");
    EXPECT_TRUE(p1 || infeasible_in(*r.outcome, "(P2)"))
        << "cell " << i << ": "
        << (r.outcome->ok() ? "solved" : r.outcome->error().to_string());
    refusals.push_back({i, p1 ? Capped::kLatency : Capped::kEnergy});
  }
  std::vector<int> reached(refusals.size(), 0);
  engine::Fan(4).run(refusals.size(), [&](std::size_t k) {
    const Cell& c = t.cells[refusals[k].cell];
    const double cap = refusals[k].capped == Capped::kLatency
                           ? c.req.l_max
                           : c.req.e_budget;
    reached[k] = lattice_reaches_cap(*t.models[c.model], refusals[k].capped,
                                     cap);
  });
  for (std::size_t k = 0; k < refusals.size(); ++k) {
    const Cell& c = t.cells[refusals[k].cell];
    EXPECT_FALSE(reached[k])
        << t.models[c.model]->name() << " cell " << refusals[k].cell
        << ": lattice point strictly below the refused "
        << (refusals[k].capped == Capped::kLatency ? "Lmax" : "Ebudget");
  }
  // Not vacuous: the ladders reach below every protocol's envelope.
  std::printf("phase-I certificate fired on %zu of %zu cells\n",
              refusals.size(), t.cells.size());
  EXPECT_GE(refusals.size(), 50u);
}

TEST(Phase1Certificate, ReachableCapsStillRunThePenaltyMultistart) {
  const Table& t = table();
  int fallbacks = 0, solved = 0;
  for (const CellResult& r : t.results) {
    if (!r.fallback) continue;
    ++fallbacks;
    if (r.outcome->ok()) ++solved;
  }
  std::printf("penalty multistart ran on %d cells, %d solved\n", fallbacks,
              solved);
  EXPECT_GE(solved, 1);
}

}  // namespace
}  // namespace edb
