// Parallel scenario engine: deterministic fan-out of independent solves.
//
// Every cell of a requirement sweep and every per-protocol bargaining
// solve is independent of the others, so the figure pipelines are
// embarrassingly parallel.  The engine partitions that work
// deterministically through the generic fan primitive (engine/fan.h —
// also the backend of sim::Campaign): each job (or cell) owns a
// preallocated output slot, executors only decide *when* a slot is
// computed, never *what* goes in it, so a parallel run and a sequential
// run of the same jobs produce bit-identical results.
//
// One further acceleration, optional and value-preserving within the
// solver cross-check tolerance (DESIGN.md §2):
//
//   warm_start — inside one sweep, cell i+1's P1/P2/P4 solves are seeded
//     from cell i's operating points (the agreement moves continuously
//     with the requirement, so the neighbour is an excellent start); a
//     trusted seed lets dual_solve replace the penalty multistart with a
//     single descent from the seed.  Warm-started sweeps therefore run as
//     one chained task; parallelism comes from fanning sweeps/protocols,
//     which is exactly the multi-protocol shape of the paper's figure
//     pipelines.
//
// Every model evaluates through its native batch kernel
// (mac::AnalyticMacModel::evaluate_batch), so the engine adds no
// evaluation cache of its own.
//
// The strictly sequential path survives as SequentialExecutor — an engine
// configured {.parallel = false, .warm_start = false}
// is exactly what core::run_sweep runs, and every other configuration
// produces bit-identical feasibility flags and outcomes over the same
// cells.  A warm chain does not solve the cells below the feasibility
// frontier individually; their infeasible_reason strings are derived per
// cell from the protocol envelope (min reachable E and L, see
// core/game_framework.h) by replaying the cold pipeline's P1 -> P2 -> P3
// failure order as two threshold comparisons, without paying a solve per
// dead cell.  The envelope and the cold solver are independent
// optimisers, so near a threshold the comparison can name another stage
// than the cold pipeline would: measured on 8 of 4,828 infeasible
// servebench ladder cells (DESIGN.md §4).  The paper's grids sit orders of
// magnitude away from the thresholds.  Feasibility flags and outcomes are
// never affected — only the reason string of an unsolved dead cell.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/sweep.h"
#include "engine/fan.h"

namespace edb::core {

// The solve-agnostic fan-out plumbing lives one layer down in
// engine/fan.h (shared with the simulation campaign layer); these aliases
// keep the historical core spellings working for every existing consumer.
using Executor = engine::Executor;
using SequentialExecutor = engine::SequentialExecutor;
using ParallelExecutor = engine::ParallelExecutor;

struct EngineOptions {
  int threads = 0;         // ParallelExecutor width; 0 = hardware threads
  bool parallel = true;    // false => SequentialExecutor
  bool warm_start = true;  // chain cells within a sweep (trusted seeds)
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

// One requirement sweep (core/sweep.h semantics: positive ascending
// values).  The model must outlive the call.
struct SweepJob {
  const mac::AnalyticMacModel* model = nullptr;
  AppRequirements base;
  SweepKind kind = SweepKind::kLmax;
  std::vector<double> values;
  double alpha = 0.5;
  // Deadline/cancellation applied per cell solve.  When a probe of the
  // warm chain fails transiently the monotone frontier logic stands down
  // and every remaining cell is solved independently — a transient
  // verdict says nothing about feasibility (engine.cpp).
  SolveControl control = {};
};

// One protocol-model + requirement-pair question: the unit the service
// layer's batch planner deals in (service/planner.h).
struct PointQuery {
  const mac::AnalyticMacModel* model = nullptr;
  AppRequirements req;
  double alpha = 0.5;
  // Deadline/cancellation (service deadlines arrive here).  Queries only
  // group into one chain when their controls agree — a budget-bound query
  // must not inherit a neighbour's unbounded chain, or vice versa.
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

// Groups point queries into warm-startable sweep chains: queries sharing a
// model, a budget and a bargaining power differ only in Lmax, which is
// exactly the shape sweep_chain accelerates (ascending values, monotone
// frontier, seeded neighbours).  Duplicate queries collapse onto one
// cell.  Grouping is deterministic (groups in first-appearance order,
// values ascending) and value-preserving: each cell is solved exactly as
// a sweep over the same values would solve it.
SweepPlan plan_point_queries(const std::vector<PointQuery>& queries);

class ScenarioEngine {
 public:
  explicit ScenarioEngine(EngineOptions opts = {});
  // Injects a custom executor (tests); `opts.parallel/threads` are ignored.
  ScenarioEngine(EngineOptions opts, std::unique_ptr<Executor> executor);
  ~ScenarioEngine();

  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  const EngineOptions& options() const { return opts_; }
  Executor& executor() { return *executor_; }

  // Solves each job; slot i holds job i's outcome (or its error).
  std::vector<Expected<BargainingOutcome>> solve_batch(
      const std::vector<SolveJob>& jobs);

  // Runs one sweep through the engine (warm-started when configured;
  // cells fan across threads otherwise).
  SweepResult run_sweep(const SweepJob& job);

  // Fans a batch of sweeps.  With warm_start each sweep is one chained
  // task; without it every cell of every sweep is its own task.
  std::vector<SweepResult> run_sweeps(const std::vector<SweepJob>& jobs);

 private:
  Expected<BargainingOutcome> solve_one(const mac::AnalyticMacModel& model,
                                        const AppRequirements& req,
                                        double alpha, const SolveHints& hints,
                                        const SolveControl& control) const;
  SweepResult sweep_skeleton(const SweepJob& job) const;
  // Warm-started whole-sweep evaluation (frontier search + seed chain).
  void sweep_chain(const SweepJob& job, SweepResult& result) const;
  void solve_cell(const SweepJob& job, SweepCell& cell,
                  SolveHints& hints) const;

  EngineOptions opts_;
  std::unique_ptr<Executor> executor_;
};

}  // namespace edb::core
