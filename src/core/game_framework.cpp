#include "core/game_framework.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <optional>
#include <span>

#include "obs/obs.h"
#include "opt/batch.h"
#include "opt/bounds.h"
#include "opt/descent.h"
#include "opt/grid.h"
#include "opt/penalty.h"
#include "util/log.h"
#include "util/math.h"
#include "util/simd.h"

namespace edb::core {
namespace {

opt::Box model_box(const mac::AnalyticMacModel& model) {
  return opt::Box(model.params().lower(), model.params().upper());
}

// One requirement slack of the batched fence: every requirement in this
// framework is a cap on one metric, normalised by the cap —
// slack(v) = (cap - v) / cap, feasible when > 0.  Keeping the combine as
// plain data (not a std::function) lets BatchFence run the slack pass on
// SIMD lanes with the scalar arithmetic bit-preserved.
struct MetricSlack {
  bool uses_energy = false;  // the metric the combine reads: E, else L
  double cap = 0;            // requirement cap on that metric (> 0)
};

// The raw objective of a fence, as plain data like MetricSlack: one metric
// (E for (P1) and the energy envelope, L for (P2) and the latency
// envelope) or (P4)'s weighted Nash objective with its constants.  The
// batched fence and the scalar oracle both call operator(), so each
// combine exists once.
struct RawObjective {
  enum class Kind { kEnergy, kLatency, kNash };
  Kind kind = Kind::kEnergy;
  // kNash only: the disagreement point, the players' bargaining ranges and
  // the energy player's bargaining power.
  double e_worst = 0, l_worst = 0, e_range = 1, l_range = 1, alpha = 0.5;

  bool uses_energy() const { return kind != Kind::kLatency; }
  bool uses_latency() const { return kind != Kind::kEnergy; }

  // (P4)'s objective is -product when both normalised slacks are positive
  // and a positive violation measure otherwise (continuous across the
  // boundary).
  double operator()(double e, double l) const {
    if (kind == Kind::kEnergy) return e;
    if (kind == Kind::kLatency) return l;
    const double se = (e_worst - e) / e_range;
    const double sl = (l_worst - l) / l_range;
    if (se > 0.0 && sl > 0.0) {
      return -std::pow(se, alpha) * std::pow(sl, 1.0 - alpha);
    }
    return (se <= 0.0 ? -se : 0.0) + (sl <= 0.0 ? -sl : 0.0);
  }
};

// Indicator-style objective for the grid and descent oracles
// (opt/batch.h): the raw objective inside the feasible region, +inf
// outside.  Grid search and the fenced descent tolerate the
// discontinuity; the penalty solver gets smooth slacks instead.
//
// Every objective and slack in this framework depends on x only through
// the metric triple (E(x), L(x), margin(x)), so one block costs one
// kernel call: evaluate_batch over the whole block for the margin and
// every metric the slacks or the raw objective read, then a min-slack
// pass on SIMD lanes and one combine loop.  A lane is +inf unless its
// margin and its worst slack are both > 0, else raw(E, L).  The kernel's
// outputs are bit-identical to the scalar metrics whatever else it is
// asked for, and a failed lane is +inf whichever test failed first, so
// this equals the scalar fence's short-circuit order exactly.
// Short-circuiting the block (margin first, then slacks and the raw
// metric on compacted survivors) cost more than it saved: the blocks
// are small, and each extra kernel call and gather outweighs the lanes
// it skips.
//
// A fence is a block oracle class (opt::BlockOracle), so the batched grid
// search calls it directly and inlines it.  It writes each block's
// metrics into a FenceScratch that the fences of one solve share.
struct FenceScratch {
  std::vector<double> margins, e, l, worst;
};

class BatchFence {
 public:
  // `slacks` and `scratch` must outlive the fence.
  BatchFence(const mac::AnalyticMacModel& model,
             std::span<const MetricSlack> slacks, RawObjective raw,
             FenceScratch& scratch)
      : model_(&model), slacks_(slacks), need_e_(raw.uses_energy()),
        need_l_(raw.uses_latency()), raw_(raw), s_(&scratch) {
    for (const auto& s : slacks_) {
      (s.uses_energy ? need_e_ : need_l_) = true;
    }
  }

  void operator()(const opt::PointBlock& b, double* values) const {
    const std::size_t n = b.n;
    FenceScratch& s = *s_;
    s.margins.resize(n);
    if (need_e_) s.e.resize(n);
    if (need_l_) s.l.resize(n);
    model_->evaluate_batch(b.xs, n, need_e_ ? s.e.data() : nullptr,
                           need_l_ ? s.l.data() : nullptr, s.margins.data());

    // Slack pass on lanes (util/simd.h for_lanes): a point meets every
    // requirement iff its worst (minimum) slack is > 0 (+inf with no
    // slacks).  Each lane slack is bit-identical to make_scalar_slacks'.
    s.worst.resize(n);
    util::for_lanes(n, [&](auto lanes, std::size_t i) {
      using L = decltype(lanes);
      L worst = L::broadcast(kInf);
      for (const auto& slack : slacks_) {
        const double* src = slack.uses_energy ? s.e.data() : s.l.data();
        const L cap = L::broadcast(slack.cap);
        worst = util::min(worst, (cap - L::load(src + i)) / cap);
      }
      worst.store(s.worst.data() + i);
    });

    for (std::size_t i = 0; i < n; ++i) {
      values[i] = s.margins[i] > 0.0 && s.worst[i] > 0.0
                      ? raw_(need_e_ ? s.e[i] : 0.0, need_l_ ? s.l[i] : 0.0)
                      : kInf;
    }
  }

 private:
  const mac::AnalyticMacModel* model_;
  std::span<const MetricSlack> slacks_;
  bool need_e_, need_l_;  // metrics the kernel computes (slacks or raw)
  RawObjective raw_;
  FenceScratch* s_;
};

// Buffers one thread's solves reuse: the grid searches' rounds and
// blocks, the fences' per-block metrics and stage 1's round-0 values.  A
// bargaining solve passes one scratch to its three dual solves, so after
// the first solve's searches have grown it no zoom round allocates.
struct SolveScratch {
  opt::GridScratch grid;
  FenceScratch fence;
  std::vector<double> lattice;
};

SolveStats stats_of(const opt::VectorResult& r) {
  return SolveStats{r.evaluations, r.blocks, r.oracle_ns};
}

// Fused point evaluation for the penalty multistart, the one scalar
// solver stage (sequential by nature, so it cannot take whole blocks).  A
// problem's objective and slack lambdas all evaluate the model at the
// same x back-to-back; routing them through one shared PointMetrics makes
// that a single evaluate_batch(n = 1) call per distinct point — the three
// metrics share the kernel's hoisted invariants — with bitwise-repeat
// calls served from the cached triple.  The models are deterministic, so reuse is
// bit-identical to re-evaluation.
class PointMetrics {
 public:
  explicit PointMetrics(const mac::AnalyticMacModel& model)
      : model_(&model) {}

  double energy(const std::vector<double>& x) {
    refresh(x);
    return e_;
  }
  double latency(const std::vector<double>& x) {
    refresh(x);
    return l_;
  }
  double margin(const std::vector<double>& x) {
    refresh(x);
    return m_;
  }

 private:
  void refresh(const std::vector<double>& x) {
    if (x.size() == last_x_.size() && !last_x_.empty() &&
        bits_equal(x.data(), last_x_.data(), x.size())) {
      return;
    }
    model_->evaluate_batch(x.data(), 1, &e_, &l_, &m_);
    last_x_.assign(x.begin(), x.end());
  }

  const mac::AnalyticMacModel* model_;
  std::vector<double> last_x_;
  double e_ = 0, l_ = 0, m_ = 0;
};

// Scalar oracles derived from the SAME spec the BatchFence runs on, so
// the penalty multistart and the batched grid stages can never drift
// apart: every slack/raw combine exists exactly once, and both flavours
// read the model through the same metric plumbing.  `metrics` must
// outlive the returned lambdas (both live on the solve's stack frame).
opt::Objective make_scalar_objective(PointMetrics& metrics,
                                     RawObjective raw) {
  return [&metrics, raw](const std::vector<double>& x) {
    const double e = raw.uses_energy() ? metrics.energy(x) : 0.0;
    const double l = raw.uses_latency() ? metrics.latency(x) : 0.0;
    return raw(e, l);
  };
}

std::vector<opt::Constraint> make_scalar_slacks(
    PointMetrics& metrics, std::span<const MetricSlack> slacks) {
  std::vector<opt::Constraint> out;
  // The protocol margin leads, exactly as BatchFence stages it.
  out.push_back(
      [&metrics](const std::vector<double>& x) { return metrics.margin(x); });
  for (const auto& s : slacks) {
    out.push_back([&metrics, s](const std::vector<double>& x) {
      const double v = s.uses_energy ? metrics.energy(x) : metrics.latency(x);
      return (s.cap - v) / s.cap;
    });
  }
  return out;
}

// The margin-only fence on one metric: E (or L) where the protocol is
// feasible, +inf elsewhere.  The envelope minimises it, and so does the
// phase-I search of the subproblem that caps that metric.
BatchFence metric_fence(const mac::AnalyticMacModel& model, bool energy,
                        FenceScratch& scratch) {
  return BatchFence(model, {},
                    {energy ? RawObjective::Kind::kEnergy
                            : RawObjective::Kind::kLatency},
                    scratch);
}

// One problem of the pipeline: minimise `raw` over the protocol's
// feasible set subject to every cap in `slacks`.  The batched fence and,
// when the penalty multistart runs, the scalar oracles are both built
// from it, so every slack/raw combine exists once.
struct Problem {
  const mac::AnalyticMacModel& model;
  std::span<const MetricSlack> slacks;
  RawObjective raw;
};

// The feasibility (phase-I) problem of a single-cap subproblem — (P1)'s
// Lmax, (P2)'s Ebudget: minimise the capped metric (E when
// `capped_energy`, else L) with its metric_fence.  The subproblem is
// feasible iff that minimum lies strictly below `cap`.  P4 (two caps)
// has no phase I.
struct PhaseOne {
  bool capped_energy = false;
  double cap = 0;
};

// Best feasible point across the two solver families of DESIGN.md §2.
//
// kDescent (production): a coarse full-box grid scan locates the basin,
// a BDCA-style boosted descent (opt/descent.h) runs on the batched fence
// as a deterministic multistart seeded from the coarse incumbent, and a
// tight anchored grid polish finishes.  When the coarse scan finds no
// feasible lattice point the fence is +inf almost everywhere and no
// descent can start.  A single-cap subproblem then runs phase I: if the
// capped metric cannot get below its cap anywhere in the protocol's
// feasible set, the solve is infeasible outright.  Otherwise (and always
// for P4) stage 2 falls back to the exterior-penalty
// multistart, whose smooth slacks can still crawl into a narrow feasible
// sliver.  A 1-D solve whose stage-1 first-round lattice has one basin
// (opt::one_basin) skips stage 2 and counts the skip as
// solver.stage2.skipped; the polished stage-1 incumbent is then the
// answer.  Any other lattice shape, and every 2-D solve, runs stage 2.
//
// kGridVerify: the original dense-grid + penalty pipeline.  It is the
// independent verifier for the descent path: both modes share the
// stage-1 lattice family and the stage-3 anchored polish, so at the
// agreement points they must select the same operating point with
// objectives equal within tolerance (tests/opt_descent_test.cpp,
// bench/solve_cold.cpp).
Expected<opt::VectorResult> dual_solve(
    const Problem& problem, const opt::Box& box, SolverMode mode,
    SolveScratch& scratch, const SolveControl& ctl, long long spent_before,
    std::optional<PhaseOne> phase1 = std::nullopt) {
  EDB_SPAN("solver.dual_solve");
  const BatchFence fence(problem.model, problem.slacks, problem.raw,
                         scratch.fence);
  const bool coarse = mode == SolverMode::kCoarse;
  const bool use_descent = mode == SolverMode::kDescent || coarse;

  // Total oracle cost of the solve: every stage's evaluations (and block
  // counters) accumulate here, independent of which candidate wins — the
  // decision logic below compares values only.  Every exit, answers,
  // infeasibility and interruptions alike, counts the solve and its spend.
  opt::VectorResult cost;
  struct CountOnExit {
    const opt::VectorResult& cost;
    ~CountOnExit() {
      EDB_COUNT("solver.solves", 1);
      EDB_COUNT("solver.oracle.evals", cost.evaluations);
      EDB_COUNT("solver.oracle.blocks", cost.blocks);
    }
  } count_on_exit{cost};

  // Deadline/cancellation checks at stage boundaries (DESIGN.md §10).
  // `spent_stage` is this dual_solve's oracle spend so far; the pipeline's
  // earlier subproblems arrive as spent_before, so the budget covers
  // P1 + P2 + P4 cumulatively.  Eval counts per stage are deterministic,
  // so a budget breach trips identically on every run and thread count.
  auto interrupted = [&](long long spent_stage) -> std::optional<Error> {
    if (ctl.cancel != nullptr &&
        ctl.cancel->load(std::memory_order_relaxed)) {
      return make_error(ErrorCode::kCancelled, "solve cancelled");
    }
    if (ctl.eval_budget > 0 &&
        spent_before + spent_stage > ctl.eval_budget) {
      return make_error(ErrorCode::kDeadlineExceeded,
                        "solve exceeded its oracle-eval budget");
    }
    return std::nullopt;
  };
  if (auto stop = interrupted(0)) return *stop;

  // Stage 1 — coarse global scan: the full-box zooming grid locates the
  // optimum's basin, and its incumbent anchors the polish window below.
  // kDescent and kGridVerify share the lattice family.  kDescent stops a
  // round earlier (~3.5e-4 of the box width — well inside the polish
  // window); the descent stage recovers the rest for a fraction of a
  // round's lattice.
  const opt::GridOptions stage1_opts =
      use_descent
          ? opt::GridOptions{.points_per_dim = 65, .rounds = 3, .zoom = 0.15}
          : opt::GridOptions{.points_per_dim = 65, .rounds = 4, .zoom = 0.15};
  // A 1-D descent solve keeps round 0's lattice for the stage-2 skip rule.
  const bool read_shape = mode == SolverMode::kDescent && box.dim() == 1;
  auto grid = [&] {
    EDB_SPAN("solver.stage1.grid");
    return opt::grid_refine_min(fence, box, stage1_opts, scratch.grid,
                                read_shape ? &scratch.lattice : nullptr);
  }();
  const bool grid_ok = !grid.x.empty() && std::isfinite(grid.value);
  cost.absorb_cost(grid);

  // kCoarse — the degradation ladder's quick answer: the stage-1 basin is
  // the whole pipeline.  No budget check on the way out: coarse solves ARE
  // the deadline fallback, bounded by construction.
  if (coarse) {
    if (!grid_ok) {
      return make_error(ErrorCode::kInfeasible,
                        "no feasible point satisfies the constraints");
    }
    grid.converged = true;
    return grid;
  }
  if (auto stop = interrupted(grid.evaluations)) return *stop;

  // Exterior-penalty multistart — kGridVerify's stage 2, and the descent
  // pipeline's fallback when stage 1 found nothing feasible and phase I
  // did not refuse (a sliver the lattice stepped over, or P4).  Its evals
  // count whether or not it finds a point.  Its scalar oracles are built
  // only here, from the same problem the fence runs on.
  auto penalty_stage2 = [&]() {
    PointMetrics metrics(problem.model);
    const opt::Objective raw = make_scalar_objective(metrics, problem.raw);
    const std::vector<opt::Constraint> slacks =
        make_scalar_slacks(metrics, problem.slacks);
    opt::VectorResult r;
    r.value = kInf;
    const auto pen = opt::constrained_min(raw, slacks, box);
    r.evaluations = pen.evaluations;
    // Re-check against the fence (penalty tolerates tiny violations).
    const bool strictly_ok =
        pen.feasible &&
        std::all_of(slacks.begin(), slacks.end(),
                    [&](const opt::Constraint& s) { return s(pen.x) > 0.0; });
    if (strictly_ok) {
      r.x = pen.x;
      r.value = pen.value;
    }
    return r;
  };

  // BDCA multistart on `f` — kDescent's stage 2 on the fence, and phase
  // I's second step.  Seeded from a scan's incumbent (when it found one);
  // the seeding lattice keeps the global cross-check role the penalty
  // multistart played.  Its iteration budget (opt/descent.cpp) runs the
  // basin to far below the polish window yet keeps a full solve ~15x under
  // the kGridVerify pipeline's evaluation count.
  auto multistart_from = [&](const BatchFence& f,
                             const opt::VectorResult& scan) {
    std::vector<std::vector<double>> seeds;
    if (!scan.x.empty() && std::isfinite(scan.value)) seeds.push_back(scan.x);
    return opt::bdca_multistart_min(std::cref(f), box, seeds);
  };

  // Phase I — kDescent's feasibility certificate for a single-cap
  // subproblem whose coarse scan found nothing feasible: minimise the
  // capped metric over the protocol's own feasible set with the stage-1
  // lattice, then the BDCA multistart from its incumbent.  A minimum not
  // strictly below the cap answers infeasible; a reachable cap leaves the
  // decision to the penalty multistart, verbatim.
  auto phase1_refuses = [&]() {
    EDB_SPAN("solver.stage2.phase1");
    const BatchFence capped =
        metric_fence(problem.model, phase1->capped_energy, scratch.fence);
    auto scan = opt::grid_refine_min(capped, box, stage1_opts, scratch.grid);
    cost.absorb_cost(scan);
    if (scan.value < phase1->cap) return false;
    auto descent = multistart_from(capped, scan);
    cost.absorb_cost(descent);
    return !(descent.value < phase1->cap);
  };

  // The stage-2 skip rule: in 1-D, a stage-1 lattice with one basin
  // leaves stage 2 nothing to decide.  Its 17 seeds are every fourth point
  // of that lattice, so each descends into the basin the stage-1
  // incumbent and the polish already cover.
  const bool skip_stage2 =
      read_shape && grid_ok && opt::one_basin(scratch.lattice);
  opt::VectorResult cand;
  if (skip_stage2) {
    EDB_COUNT("solver.stage2.skipped", 1);
  } else {
    EDB_SPAN("solver.stage2");
    if (use_descent && !grid_ok) {
      if (phase1 && phase1_refuses()) {
        EDB_COUNT("solver.phase1_certified", 1);
        return make_error(ErrorCode::kInfeasible,
                          "no feasible point satisfies the constraints");
      }
      EDB_COUNT("solver.penalty_fallbacks", 1);
    }
    cand = use_descent && grid_ok ? multistart_from(fence, grid)
                                  : penalty_stage2();
  }
  cost.absorb_cost(cand);

  const bool cand_ok = !cand.x.empty() && std::isfinite(cand.value);
  if (!grid_ok && !cand_ok) {
    return make_error(ErrorCode::kInfeasible,
                      "no feasible point satisfies the constraints");
  }
  // Infeasibility outranks the deadline: it is the deterministic, cacheable
  // answer, and the transient kDeadlineExceeded would only hide it.
  if (auto stop = interrupted(cost.evaluations)) return *stop;

  // Stage 3 — deep polish: a self-centring grid zoom in a tight window
  // anchored at the stage-1 incumbent, refined to the arithmetic's limits.
  // Objectives here are flat around interior optima at the
  // sqrt(machine-eps) scale, so an argmin is only pinned down to ~1e-8 in
  // x by its value; anchoring the window and its lattice to the stage-1
  // point makes kDescent and kGridVerify land on the *same* point inside
  // that flat zone, not just equally good ones.  kDescent thins the
  // lattice (17 points; final spacing ~5e-12 of the box width after 10
  // zoom rounds — still far below the flat zone).
  opt::VectorResult best = grid_ok ? grid : cand;
  const std::vector<double>& anchor = grid_ok ? grid.x : cand.x;
  {
    EDB_SPAN("solver.stage3.polish");
    std::vector<double> lo(box.dim()), hi(box.dim());
    for (std::size_t i = 0; i < box.dim(); ++i) {
      const double half = 1e-3 * box.width(i);
      lo[i] = std::max(box.lo(i), anchor[i] - half);
      hi[i] = std::min(box.hi(i), anchor[i] + half);
    }
    const opt::GridOptions polish_opts =
        use_descent
            ? opt::GridOptions{.points_per_dim = 17, .rounds = 10,
                               .zoom = 0.15}
            : opt::GridOptions{.points_per_dim = 65, .rounds = 10,
                               .zoom = 0.15};
    auto polished = opt::grid_refine_min(
        fence, opt::Box(std::move(lo), std::move(hi)), polish_opts,
        scratch.grid);
    cost.absorb_cost(polished);
    if (std::isfinite(polished.value) && polished.value < best.value) {
      best = polished;
    }
  }

  // The stage-2 result may displace the polished point only by beating it
  // at macroscopic scale — a better basin the coarse scan missed — never
  // by convergence noise, which differs between the two solver families
  // and would make the answer mode-dependent.
  if (cand_ok && best.value - cand.value >
                     1e-6 * std::max(std::abs(best.value),
                                     std::abs(cand.value))) {
    best = cand;
  }

  best.evaluations = cost.evaluations;
  best.blocks = cost.blocks;
  best.oracle_ns = cost.oracle_ns;
  best.converged = true;
  return best;
}

OperatingPoint operating_point(const mac::AnalyticMacModel& model,
                               std::vector<double> x) {
  OperatingPoint p;
  p.energy = model.energy(x);
  p.latency = model.latency(x);
  p.x = std::move(x);
  return p;
}

// The pipeline's infeasibility errors, in the wording every solve attaches.
Error p1_infeasible_error(std::string_view protocol) {
  return make_error(ErrorCode::kInfeasible,
                    std::string(protocol) +
                        " (P1): no parameter setting meets Lmax");
}

Error p2_infeasible_error(std::string_view protocol) {
  return make_error(ErrorCode::kInfeasible,
                    std::string(protocol) +
                        " (P2): no parameter setting meets the budget");
}

Error p3_infeasible_error(std::string_view protocol) {
  return make_error(
      ErrorCode::kInfeasible,
      std::string(protocol) +
          " (P3): no operating point satisfies both the energy budget "
          "and the delay bound");
}

// (P1) and (P2) are one problem with the players' roles swapped: minimise
// your own metric under a cap on the other's — E under Lmax for the
// energy player, L under Ebudget for the delay player.
enum class Subproblem { kP1, kP2 };

// `box` is the model's parameter box.  `stats`, when non-null,
// accumulates the dual_solve's oracle cost.
Expected<OperatingPoint> solve_capped(const mac::AnalyticMacModel& model,
                                      const opt::Box& box,
                                      const AppRequirements& req,
                                      Subproblem subproblem, SolverMode mode,
                                      const SolveControl& ctl,
                                      SolveScratch& scratch,
                                      SolveStats* stats) {
  const bool p1 = subproblem == Subproblem::kP1;
  const double cap = p1 ? req.l_max : req.e_budget;
  const MetricSlack slack{/*uses_energy=*/!p1, /*cap=*/cap};
  const Problem problem{model, {&slack, 1},
                        {p1 ? RawObjective::Kind::kEnergy
                            : RawObjective::Kind::kLatency}};
  // Phase I minimises the capped metric.
  auto r = dual_solve(problem, box, mode, scratch, ctl,
                      stats ? stats->evaluations : 0,
                      PhaseOne{/*capped_energy=*/!p1, cap});
  if (!r.ok()) {
    // Transient codes (deadline, cancellation) describe this attempt, not
    // the problem — they must surface as themselves, never as kInfeasible.
    if (is_transient(r.error().code)) return r.error();
    return p1 ? p1_infeasible_error(model.name())
              : p2_infeasible_error(model.name());
  }
  if (stats) stats->absorb(stats_of(*r));
  return operating_point(model, r->x);
}

}  // namespace

ProtocolEnvelope protocol_envelope(const mac::AnalyticMacModel& model) {
  EDB_SPAN("solver.envelope");
  const opt::Box box = model_box(model);
  // The same lattice family as dual_solve's stage 1, refined a little
  // deeper: the envelope feeds threshold comparisons against sweep values,
  // not optimisation, so ~1e-6-of-the-box accuracy is ample.
  const opt::GridOptions grid_opts{.points_per_dim = 65, .rounds = 8,
                                   .zoom = 0.15};
  ProtocolEnvelope env;
  SolveScratch scratch;
  const BatchFence fence_e = metric_fence(model, /*energy=*/true,
                                          scratch.fence);
  const BatchFence fence_l = metric_fence(model, /*energy=*/false,
                                          scratch.fence);
  auto e = opt::grid_refine_min(fence_e, box, grid_opts, scratch.grid);
  auto l = opt::grid_refine_min(fence_l, box, grid_opts, scratch.grid);
  env.e_min = std::isfinite(e.value) ? e.value : kInf;
  env.l_min = std::isfinite(l.value) ? l.value : kInf;
  return env;
}

double BargainingOutcome::energy_gain_ratio() const {
  const double denom = e_best() - e_worst();
  if (std::abs(denom) < 1e-300) return 0.0;
  return (nbs.energy - e_worst()) / denom;
}

double BargainingOutcome::latency_gain_ratio() const {
  const double denom = l_best() - l_worst();
  if (std::abs(denom) < 1e-300) return 0.0;
  return (nbs.latency - l_worst()) / denom;
}

EnergyDelayGame::EnergyDelayGame(const mac::AnalyticMacModel& model,
                                 AppRequirements req)
    : model_(model), req_(req) {
  EDB_ASSERT(req_.validate().ok(), "invalid application requirements");
}

Expected<OperatingPoint> EnergyDelayGame::solve_p1() const {
  SolveScratch scratch;
  return solve_capped(model_, model_box(model_), req_, Subproblem::kP1, mode_,
                      control_, scratch, nullptr);
}

Expected<OperatingPoint> EnergyDelayGame::solve_p2() const {
  SolveScratch scratch;
  return solve_capped(model_, model_box(model_), req_, Subproblem::kP2, mode_,
                      control_, scratch, nullptr);
}

Expected<BargainingOutcome> EnergyDelayGame::solve() const {
  return solve_weighted(0.5);
}

Expected<BargainingOutcome> EnergyDelayGame::solve_weighted(
    double alpha) const {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "bargaining power alpha must lie in (0, 1)");
  }
  SolveStats stats;
  SolveScratch scratch;
  const opt::Box box = model_box(model_);
  auto p1 = solve_capped(model_, box, req_, Subproblem::kP1, mode_, control_,
                         scratch, &stats);
  if (!p1.ok()) return p1.error();
  auto p2 = solve_capped(model_, box, req_, Subproblem::kP2, mode_, control_,
                         scratch, &stats);
  if (!p2.ok()) return p2.error();

  BargainingOutcome out;
  out.p1 = *p1;
  out.p2 = *p2;
  out.stats = stats;

  const double e_worst = out.e_worst();
  const double l_worst = out.l_worst();

  // Degenerate game: both players already agree (single-point frontier).
  if (rel_diff(out.e_best(), e_worst) < 1e-9 &&
      rel_diff(out.l_best(), l_worst) < 1e-9) {
    out.nbs = out.p1;
    out.nash_product = 0.0;
    return out;
  }

  // The (P3) caps: agreements must beat the disagreement point and meet
  // the application requirements.
  const double e_cap = std::min(req_.e_budget, e_worst);
  const double l_cap = std::min(req_.l_max, l_worst);

  // No agreement strictly inside the caps.  Strict-inequality slacks can
  // exclude a corner that sits exactly on the caps; accept a corner that
  // satisfies the (P3) constraints within tolerance.  Otherwise the
  // players genuinely cannot reach any agreement inside the application
  // requirements.
  auto corner_or_infeasible = [&]() -> Expected<BargainingOutcome> {
    auto corner_ok = [&](const OperatingPoint& c) {
      return c.energy <= e_cap * (1 + 1e-9) && c.latency <= l_cap * (1 + 1e-9);
    };
    if (corner_ok(out.p2) || corner_ok(out.p1)) {
      EDB_WARN("NBS search degenerate for " << model_.name()
                                            << "; using a corner agreement");
      out.nbs = corner_ok(out.p2) ? out.p2 : out.p1;
      out.nash_product = 0.0;
      return out;
    }
    return p3_infeasible_error(model_.name());
  };

  // Empty bargaining set (DESIGN.md §2): l_cap <= Lmax makes every point
  // of the P4 set P1-feasible, so its energy is >= e_best; likewise its
  // latency is >= l_best.  When a player's own optimum already misses its
  // cap by more than solver tolerance (dual_solve's 1e-6 macro margin),
  // the set is empty and P4 would only search for nothing.
  if (out.e_best() > e_cap * (1 + 1e-6) || out.l_best() > l_cap * (1 + 1e-6)) {
    EDB_COUNT("solver.p3_certified", 1);
    return corner_or_infeasible();
  }

  // (P4): maximise the (weighted) Nash product below the disagreement
  // point.  Slacks are normalised by the players' bargaining ranges so the
  // exponents weight *relative* gains; for alpha = 1/2 the argmax equals
  // the paper's plain product (RawObjective::kNash).
  const double e_range = std::max(e_worst - out.e_best(), 1e-300);
  const double l_range = std::max(l_worst - out.l_best(), 1e-300);
  // The caps are x-independent, so hoisting them out of the per-lane
  // combines preserves the scalar bits.
  const std::array<MetricSlack, 2> slacks = {
      {{/*uses_energy=*/true, /*cap=*/e_cap},
       {/*uses_energy=*/false, /*cap=*/l_cap}}};
  const Problem problem{model_, slacks,
                        {RawObjective::Kind::kNash, e_worst, l_worst,
                         e_range, l_range, alpha}};
  auto r = dual_solve(problem, box, mode_, scratch, control_,
                      stats.evaluations);
  if (!r.ok()) {
    // Deadline/cancellation first: the corner fallback answers
    // "degenerate bargaining set", not "we ran out of budget".
    if (is_transient(r.error().code)) return r.error();
    return corner_or_infeasible();
  }

  stats.absorb(stats_of(*r));
  out.stats = stats;
  out.nbs = operating_point(model_, r->x);
  out.nash_product = std::max(0.0, (e_worst - out.nbs.energy) *
                                       (l_worst - out.nbs.latency));
  return out;
}

std::vector<opt::ParetoPoint> EnergyDelayGame::frontier(
    int points_per_dim) const {
  const opt::Box box = model_box(model_);
  // Blockwise metric sweeps through the model's batch oracle; same point
  // set and order as the scalar scan (opt/pareto.h).
  opt::BatchObjective f1 = [this](const opt::PointBlock& b, double* v) {
    model_.evaluate_batch(b.xs, b.n, v, nullptr, nullptr);
  };
  opt::BatchObjective f2 = [this](const opt::PointBlock& b, double* v) {
    model_.evaluate_batch(b.xs, b.n, nullptr, v, nullptr);
  };
  opt::BatchConstraint feas = [this](const opt::PointBlock& b, double* v) {
    model_.evaluate_batch(b.xs, b.n, nullptr, nullptr, v);
  };
  return opt::trace_frontier(f1, f2, box, feas, points_per_dim);
}

}  // namespace edb::core
