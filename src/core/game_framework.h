// The paper's game-theoretic framework: energy and delay as virtual players.
//
// EnergyDelayGame wires an analytic MAC model into the three optimisation
// problems of §2:
//
//   (P1)  min E(X)  s.t. L(X) <= Lmax          ->  (Ebest, Lworst)
//   (P2)  min L(X)  s.t. E(X) <= Ebudget       ->  (Eworst, Lbest)
//   (P4)  max log(Eworst - E) + log(Lworst - L)
//         s.t. (E, L) <= (Eworst, Lworst), (E, L) <= (Ebudget, Lmax)
//                                              ->  (E*, L*)
//
// (P4) is the concave transform of the Nash product (P3) with disagreement
// point (Eworst, Lworst), exactly as the paper sets it up.  Every problem
// additionally carries the protocol's own feasibility constraints
// (AnalyticMacModel::feasibility_margin > 0).
//
// Each solve runs two independent solver families and returns the better
// feasible point; the test suite asserts the two agree, which is this
// library's substitute for a convex-programming package (DESIGN.md §2).
// The production pipeline (SolverMode::kDescent) pairs a coarse grid scan
// with a BDCA-style boosted descent and a tight anchored polish; the
// original dense-grid/penalty pipeline survives, cold only, as
// SolverMode::kGridVerify, the independent verifier the descent path is
// gated against at the agreement points.  (P1) and (P2) share one
// implementation: a single-cap subproblem with the metrics swapped.
#pragma once

#include <atomic>
#include <vector>

#include "core/scenario.h"
#include "mac/model.h"
#include "opt/pareto.h"
#include "util/error.h"

namespace edb::core {

// Solver pipeline selector (DESIGN.md §2).
//
//   kDescent    — production: coarse grid seeding, BDCA boosted descent
//                 (opt/descent.h), deep polish anchored at the coarse
//                 incumbent.  ~15x fewer oracle evaluations per solve.
//   kGridVerify — the dense-grid + exterior-penalty pipeline the descent
//                 path replaced, retained as its independent verifier:
//                 both modes must select the same operating point with
//                 objectives equal within tolerance, asserted by
//                 tests/opt_descent_test.cpp and bench/solve_cold.  It
//                 always solves cold; trusted hints do not change it.
enum class SolverMode {
  kDescent,
  kGridVerify,
  // kCoarse — the degradation ladder's quick answer (DESIGN.md §10):
  // stage-1 coarse grid only, no descent, no polish.  Roughly the basin
  // of the true optimum at a few hundred oracle evals; served only with
  // TuningResult::quality == kCoarse, never cached.
  kCoarse,
};

// One solved operating point of the protocol.
struct OperatingPoint {
  std::vector<double> x;  // MAC parameters
  double energy = 0;      // E(x) [J per epoch]
  double latency = 0;     // L(x) [s]
};

// Solver-cost instrumentation accumulated across a pipeline's dual_solves
// (P1 + P2 + P4), threaded up from opt::VectorResult so benches can report
// evaluations per solve and ns per evaluation (bench/solve_cold.cpp).
struct SolveStats {
  long long evaluations = 0;  // scalar-equivalent oracle evaluations
  long long blocks = 0;       // block-oracle invocations (batched stages)
  double oracle_ns = 0;       // wall time inside the block oracle [ns]

  void absorb(const SolveStats& o) {
    evaluations += o.evaluations;
    blocks += o.blocks;
    oracle_ns += o.oracle_ns;
  }
};

// Cooperative deadline + cancellation for a solve (DESIGN.md §10).
//
// The budget is counted in *oracle evaluations*, not wall time: per-stage
// eval counts are deterministic, so a budget-bound solve trips at the same
// stage boundary on every run and at every thread count — deadline errors
// are as reproducible as results.  Checks happen at block-oracle stage
// boundaries (coarse scan, descent/penalty, polish), which bounds
// cancellation latency by one solver stage.  A completed pipeline is never
// retroactively failed: the budget gates *starting* more work, so a solve
// whose last stage overshoots still returns its answer.
struct SolveControl {
  // When non-null and set, solves return kCancelled at the next stage
  // boundary.  The pointee must outlive every solve it is passed to.
  const std::atomic<bool>* cancel = nullptr;
  // Max oracle evaluations for the whole P1+P2+P4 pipeline; 0 = unlimited.
  // On breach the active dual_solve returns kDeadlineExceeded.
  long long eval_budget = 0;
};

// Full outcome of the bargaining pipeline for one protocol + requirements.
struct BargainingOutcome {
  OperatingPoint p1;   // energy player's optimum: (Ebest, Lworst)
  OperatingPoint p2;   // delay player's optimum:  (Eworst, Lbest)
  OperatingPoint nbs;  // the agreement:           (E*, L*)

  double e_best() const { return p1.energy; }
  double l_worst() const { return p1.latency; }
  double e_worst() const { return p2.energy; }
  double l_best() const { return p2.latency; }

  double nash_product = 0;  // (Eworst - E*)(Lworst - L*)

  SolveStats stats;  // aggregated cost of the P1/P2/P4 dual_solves

  // The paper's proportional-fairness identity ratios:
  //   (E* - Eworst)/(Ebest - Eworst)  and  (L* - Lworst)/(Lbest - Lworst).
  // Both lie in [0, 1]; the identity asserts they are equal.
  double energy_gain_ratio() const;
  double latency_gain_ratio() const;
};

// Warm-start hints carried between neighbouring solves (core/engine.h).
// An untrusted seed joins the cold stage 2's multistart list (descent,
// phase I or penalty) for the matching subproblem.  Under kDescent, a
// `trusted` seed (the scenario engine's chain) replaces the multistart
// with a single fenced descent from the seed — the cost saving behind
// warm-started sweeps; the shared coarse scan and anchored polish of
// dual_solve keep the result equal to the cold path's (DESIGN.md §2).
// kGridVerify ignores a trusted seed and solves cold.
struct SolveHints {
  std::vector<double> p1;   // seed for the energy player's optimum
  std::vector<double> p2;   // seed for the delay player's optimum
  std::vector<double> nbs;  // seed for the agreement point (P4)
  bool trusted = false;

  bool empty() const { return p1.empty() && p2.empty() && nbs.empty(); }
};

// The pipeline's infeasibility errors, exposed as builders so the scenario
// engine can derive below-frontier reasons (core/engine.h) in the exact
// wording a cold solve attaches.
Error p1_infeasible_error(std::string_view protocol);
Error p2_infeasible_error(std::string_view protocol);
Error p3_infeasible_error(std::string_view protocol);

// Requirement-independent protocol envelope: the smallest energy and
// latency reachable anywhere inside the protocol's own feasible set
// (feasibility_margin > 0), ignoring the application requirements.  (P1)
// is infeasible exactly when l_min >= Lmax and (P2) exactly when
// e_min >= Ebudget, so the envelope turns per-cell infeasibility reasons
// into two comparisons.  Computed with the same zooming-grid family as
// dual_solve's coarse scan — no full bargaining solve.
struct ProtocolEnvelope {
  double e_min = 0;  // min E(X) over the margin-feasible set [J]
  double l_min = 0;  // min L(X) over the margin-feasible set [s]
};
ProtocolEnvelope protocol_envelope(const mac::AnalyticMacModel& model);

class EnergyDelayGame {
 public:
  // The model must outlive the game.
  EnergyDelayGame(const mac::AnalyticMacModel& model, AppRequirements req);

  // (P1): energy player.  kInfeasible when no parameter setting meets Lmax.
  Expected<OperatingPoint> solve_p1() const;
  // (P2): delay player.  kInfeasible when no parameter setting meets the
  // budget.
  Expected<OperatingPoint> solve_p2() const;
  // Full pipeline: P1, P2, then the Nash bargaining problem (P4),
  // optionally warm-started from a neighbouring solve's hints.
  Expected<BargainingOutcome> solve() const;
  Expected<BargainingOutcome> solve(const SolveHints& hints) const;

  // Asymmetric extension (beyond the paper): maximises the weighted Nash
  // product (Eworst - E)^alpha (Lworst - L)^(1-alpha).  alpha in (0, 1) is
  // the energy player's bargaining power; alpha = 1/2 recovers solve().
  Expected<BargainingOutcome> solve_weighted(double alpha,
                                             const SolveHints& hints = {}) const;

  // The protocol's feasible E-L frontier (for plotting the trade-off
  // curves behind the paper's figures).  Not clipped to the requirements.
  std::vector<opt::ParetoPoint> frontier(int points_per_dim = 512) const;

  const mac::AnalyticMacModel& model() const { return model_; }
  const AppRequirements& requirements() const { return req_; }

  // Pipeline selection; kDescent is the production default.
  void set_solver_mode(SolverMode mode) { mode_ = mode; }

  // Deadline/cancellation applied to every subsequent solve.  The eval
  // budget spans the full solve_weighted pipeline (P1 + P2 + P4
  // cumulatively), so stats.evaluations of a completed solve relates
  // directly to the budget that would have admitted it.
  void set_control(const SolveControl& control) { control_ = control; }
  const SolveControl& control() const { return control_; }

 private:
  const mac::AnalyticMacModel& model_;
  AppRequirements req_;
  SolverMode mode_ = SolverMode::kDescent;
  SolveControl control_;
};

}  // namespace edb::core
