// Requirement sweeps: the experiment pattern behind the paper's figures.
//
// A sweep solves the bargaining game for one protocol across a series of
// requirement values (Lmax for Fig. 1, Ebudget for Fig. 2) and collects the
// outcomes, marking infeasible cells instead of failing.  Benches, tests
// and examples all share this driver; report.h renders the results.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/game_framework.h"

namespace edb::core {

enum class SweepKind {
  kLmax,    // vary the delay bound, budget fixed (Fig. 1)
  kBudget,  // vary the energy budget, delay bound fixed (Fig. 2)
};

const char* sweep_kind_name(SweepKind kind);

struct SweepCell {
  double value = 0;  // the swept requirement (Lmax [s] or Ebudget [J])
  // Engaged when the game admits an agreement at this requirement.
  std::optional<BargainingOutcome> outcome;
  std::string infeasible_reason;  // set when !outcome
  // Machine-readable counterpart of infeasible_reason.  The split that
  // matters downstream is is_transient(): deterministic codes (kInfeasible)
  // are properties of the cell and may be negatively cached; transient
  // codes (kDeadlineExceeded, kCancelled, kUnavailable) describe one
  // attempt and must not be (service/core.cpp, DESIGN.md §10).
  ErrorCode infeasible_code = ErrorCode::kInfeasible;

  bool feasible() const { return outcome.has_value(); }
};

struct SweepResult {
  std::string protocol;
  SweepKind kind = SweepKind::kLmax;
  AppRequirements base;  // the fixed requirement lives here
  std::vector<SweepCell> cells;

  std::size_t feasible_count() const;
  // Indices of consecutive trailing cells whose agreements coincide within
  // `tol` relative difference — the paper's "saturation" clusters.
  std::vector<std::size_t> saturated_tail(double tol = 1e-3) const;
};

// Runs the sweep.  `model` must outlive the call.  Values must be positive
// and ascending.  This is the compatibility entry point: it routes through
// the scenario engine (core/engine.h) at width 1 — the engine's reference
// configuration, bit-identical to any other width over the same values.
// (The solver pipeline itself evolves, so numbers are pinned to the
// current dual_solve, not to historic output.)  Callers that want
// parallel fan-out construct a ScenarioEngine themselves.
SweepResult run_sweep(const mac::AnalyticMacModel& model,
                      AppRequirements base, SweepKind kind,
                      const std::vector<double>& values);

// The requirement grids of the paper's figures (Fig. 1: Lmax = 1..6 s,
// Fig. 2: Ebudget = 0.01..0.06 J).
const std::vector<double>& paper_sweep_values(SweepKind kind);

// The exact sweeps of the paper's figures.
SweepResult paper_fig1_sweep(const mac::AnalyticMacModel& model,
                             AppRequirements base = {});
SweepResult paper_fig2_sweep(const mac::AnalyticMacModel& model,
                             AppRequirements base = {});

}  // namespace edb::core
