// Parallel scenario engine: deterministic fan-out of independent solves.
//
// Every cell of a requirement sweep and every per-protocol bargaining
// solve is its own game — (P1), (P2), then (P4) at one (Lmax, Ebudget) —
// so the figure pipelines are embarrassingly parallel.  The engine
// partitions that work deterministically through the one fan-out class,
// engine::Fan (engine/fan.h — also the backend of sim::Campaign): each job
// (or cell) is one cold solve that owns a preallocated output slot, and
// the fan's width only decides *when* a slot is computed, never *what*
// goes in it, so a run at any width produces bit-identical results —
// feasibility flags, outcomes and infeasibility reasons alike.  The
// strictly sequential path is the width-1 fan ({.parallel = false}),
// which is exactly what core::run_sweep runs.
//
// Every model evaluates through its native batch kernel
// (mac::AnalyticMacModel::evaluate_batch), so the engine adds no
// evaluation cache of its own.
#pragma once

#include <vector>

#include "core/sweep.h"
#include "engine/fan.h"

namespace edb::core {

struct EngineOptions {
  int threads = 0;       // fan width; 0 = hardware threads
  bool parallel = true;  // false => width 1 (the calling thread)
};

// One independent bargaining solve.  The model must outlive the call.
// alpha is the energy player's bargaining power (solve_weighted); the
// default 0.5 is the paper's symmetric solve.
struct SolveJob {
  const mac::AnalyticMacModel* model = nullptr;
  AppRequirements req;
  double alpha = 0.5;
  // Deadline/cancellation (core/game_framework.h); default = unbounded.
  SolveControl control = {};
};

// One protocol-model + requirement-pair question: the unit
// plan_point_queries groups into sweeps.  Queries only group into one
// sweep when their controls agree: a sweep carries one control for all
// of its cells.
using PointQuery = SolveJob;

// One requirement sweep (core/sweep.h semantics: positive ascending
// values).  The model must outlive the call.
struct SweepJob {
  const mac::AnalyticMacModel* model = nullptr;
  AppRequirements base;
  SweepKind kind = SweepKind::kLmax;
  std::vector<double> values;
  double alpha = 0.5;
  // Deadline/cancellation applied per cell solve.
  SolveControl control = {};
};

// Where a point query's answer lives inside a planned batch: cell `cell`
// of jobs[job].
struct SweepSlot {
  std::size_t job = 0;
  std::size_t cell = 0;
};

struct SweepPlan {
  std::vector<SweepJob> jobs;
  std::vector<SweepSlot> slots;  // slots[i] answers queries[i]
};

// Groups point queries into Lmax sweeps: queries sharing a model, a
// budget, a bargaining power and a control differ only in Lmax, so each
// group is one SweepJob with ascending values.  Duplicate queries collapse
// onto one cell.  Grouping is deterministic (groups in first-appearance
// order, values ascending) and value-preserving: each cell is solved
// exactly as a sweep over the same values would solve it.
SweepPlan plan_point_queries(const std::vector<PointQuery>& queries);

class ScenarioEngine {
 public:
  explicit ScenarioEngine(EngineOptions opts = {});

  const EngineOptions& options() const { return opts_; }

  // Solves each job; slot i holds job i's outcome (or its error).
  std::vector<Expected<BargainingOutcome>> solve_batch(
      const std::vector<SolveJob>& jobs);

  // Runs one sweep through the engine; its cells fan across the width.
  SweepResult run_sweep(const SweepJob& job);

  // Fans a batch of sweeps: every cell of every sweep is its own task.
  std::vector<SweepResult> run_sweeps(const std::vector<SweepJob>& jobs);

 private:
  EngineOptions opts_;
  engine::Fan fan_;
};

}  // namespace edb::core
