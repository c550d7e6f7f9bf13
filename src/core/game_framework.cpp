#include "core/game_framework.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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

// Indicator-style objective for the grid and descent oracles
// (opt/batch.h): the raw objective inside the feasible region, +inf
// outside.  Grid search and the fenced descent tolerate the
// discontinuity; the penalty solver gets smooth slacks instead.
//
// Every objective and slack in this framework depends on x only through
// the metric triple (E(x), L(x), margin(x)), so the fence vectorizes as
// three blockwise metric sweeps with the scalar combine arithmetic
// applied per lane.  Evaluation replays the scalar fence's order: the
// protocol margin first (lanes failing it are +inf and never see another
// metric), then the requirement slacks in declaration order
// (short-circuit: a failed slack kills the lane), then the raw objective
// only on the lanes still alive.  Metrics computed for the slack stage
// are reused by the raw stage — the models are deterministic, so reuse
// is bit-identical to re-evaluation.
class BatchFence {
 public:
  BatchFence(const mac::AnalyticMacModel& model,
             std::vector<MetricSlack> slacks, bool raw_uses_e,
             bool raw_uses_l, std::function<double(double, double)> raw)
      : model_(&model), slacks_(std::move(slacks)), raw_uses_e_(raw_uses_e),
        raw_uses_l_(raw_uses_l), raw_(std::move(raw)) {
    for (const auto& s : slacks_) {
      (s.uses_energy ? slack_e_ : slack_l_) = true;
    }
  }

  // The std::function wrapper the grid solvers take; `this` must outlive
  // the returned oracle (both live on the solve's stack frame).
  opt::BatchObjective oracle() {
    return [this](const opt::PointBlock& b, double* values) {
      evaluate(b, values);
    };
  }

 private:
  void evaluate(const opt::PointBlock& b, double* values) {
    const std::size_t dim = b.dim;

    // Stage 1 — protocol margin over the whole block.
    margins_.resize(b.n);
    model_->evaluate_batch(b.xs, b.n, nullptr, nullptr, margins_.data());
    alive_.clear();
    sub_.clear();
    for (std::size_t i = 0; i < b.n; ++i) {
      if (margins_[i] > 0.0) {
        alive_.push_back(i);
        const double* p = b.point(i);
        sub_.insert(sub_.end(), p, p + dim);
      } else {
        values[i] = kInf;
      }
    }
    if (alive_.empty()) return;
    const std::size_t m = alive_.size();

    // Stage 2 — requirement slacks on the margin-feasible lanes.
    if (slack_e_) e_.resize(m);
    if (slack_l_) l_.resize(m);
    if (slack_e_ || slack_l_) {
      model_->evaluate_batch(sub_.data(), m, slack_e_ ? e_.data() : nullptr,
                             slack_l_ ? l_.data() : nullptr, nullptr);
    }
    survivors_.clear();
    if (slacks_.empty()) {
      for (std::size_t j = 0; j < m; ++j) survivors_.push_back(j);
    } else {
      // Slack pass on SIMD lanes: a point survives iff every slack is
      // > 0, i.e. iff the worst (minimum) slack is.  min-combining in
      // declaration order keeps every intermediate bit-identical to the
      // scalar tail, and a failed point's output (+inf) is the same
      // whichever slack failed first, so dropping the scalar
      // short-circuit is observationally exact.
      using util::DoubleLanes;
      constexpr std::size_t W = DoubleLanes::kWidth;
      worst_.resize(m);
      std::size_t j = 0;
      for (; j + W <= m; j += W) {
        DoubleLanes worst = DoubleLanes::broadcast(kInf);
        for (const auto& s : slacks_) {
          const double* src = s.uses_energy ? e_.data() : l_.data();
          const DoubleLanes cap = DoubleLanes::broadcast(s.cap);
          worst = util::min(worst,
                            (cap - DoubleLanes::load(src + j)) / cap);
        }
        worst.store(worst_.data() + j);
      }
      for (; j < m; ++j) {
        double worst = kInf;
        for (const auto& s : slacks_) {
          const double v = s.uses_energy ? e_[j] : l_[j];
          worst = std::min(worst, (s.cap - v) / s.cap);
        }
        worst_[j] = worst;
      }
      for (std::size_t t = 0; t < m; ++t) {
        if (worst_[t] > 0.0) {
          survivors_.push_back(t);
        } else {
          values[alive_[t]] = kInf;
        }
      }
    }
    if (survivors_.empty()) return;

    // Stage 3 — raw objective on the fully feasible lanes; metrics not
    // already computed for the slacks are evaluated on the compacted
    // survivor block.
    const bool extra_e = raw_uses_e_ && !slack_e_;
    const bool extra_l = raw_uses_l_ && !slack_l_;
    const std::size_t k = survivors_.size();
    if (extra_e || extra_l) {
      sub2_.clear();
      for (std::size_t j : survivors_) {
        const double* p = sub_.data() + j * dim;
        sub2_.insert(sub2_.end(), p, p + dim);
      }
      if (extra_e) e2_.resize(k);
      if (extra_l) l2_.resize(k);
      model_->evaluate_batch(sub2_.data(), k,
                             extra_e ? e2_.data() : nullptr,
                             extra_l ? l2_.data() : nullptr, nullptr);
    }
    for (std::size_t t = 0; t < k; ++t) {
      const std::size_t j = survivors_[t];
      const double e =
          raw_uses_e_ ? (slack_e_ ? e_[j] : e2_[t]) : 0.0;
      const double l =
          raw_uses_l_ ? (slack_l_ ? l_[j] : l2_[t]) : 0.0;
      values[alive_[j]] = raw_(e, l);
    }
  }

  const mac::AnalyticMacModel* model_;
  std::vector<MetricSlack> slacks_;
  bool raw_uses_e_, raw_uses_l_;
  bool slack_e_ = false, slack_l_ = false;
  std::function<double(double, double)> raw_;
  // Scratch (reused across blocks; one fence serves one solve thread).
  std::vector<double> margins_, e_, l_, e2_, l2_, sub_, sub2_, worst_;
  std::vector<std::size_t> alive_, survivors_;
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
        std::memcmp(x.data(), last_x_.data(),
                    x.size() * sizeof(double)) == 0) {
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
opt::Objective make_scalar_objective(
    PointMetrics& metrics, bool raw_uses_e, bool raw_uses_l,
    std::function<double(double, double)> raw) {
  return [&metrics, raw_uses_e, raw_uses_l,
          raw = std::move(raw)](const std::vector<double>& x) {
    const double e = raw_uses_e ? metrics.energy(x) : 0.0;
    const double l = raw_uses_l ? metrics.latency(x) : 0.0;
    return raw(e, l);
  };
}

std::vector<opt::Constraint> make_scalar_slacks(
    PointMetrics& metrics, const std::vector<MetricSlack>& slacks) {
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
BatchFence metric_fence(const mac::AnalyticMacModel& model, bool energy) {
  if (energy) {
    return BatchFence(model, {}, /*raw_uses_e=*/true, /*raw_uses_l=*/false,
                      [](double e, double) { return e; });
  }
  return BatchFence(model, {}, /*raw_uses_e=*/false, /*raw_uses_l=*/true,
                    [](double, double l) { return l; });
}

// The feasibility (phase-I) problem of a single-cap subproblem — (P1)'s
// Lmax, (P2)'s Ebudget: `oracle` is the capped metric's metric_fence.
// The subproblem is feasible iff that metric's minimum lies strictly
// below `cap`.  An empty oracle (P4, two caps) skips phase I.
struct PhaseOne {
  opt::BatchObjective oracle;
  double cap = 0;
};

// Best feasible point across the two solver families of DESIGN.md §2.
//
// kDescent (production): a coarse full-box grid scan locates the basin,
// a BDCA-style boosted descent (opt/descent.h) runs on the batched fence
// — cold: deterministic multistart seeded from the coarse incumbent (and
// any untrusted hint); warm: a single descent from the trusted seed —
// and a tight anchored grid polish finishes.  When the coarse scan finds
// no feasible lattice point the fence is +inf almost everywhere and no
// descent can start.  A single-cap subproblem then runs phase I: if the
// capped metric cannot get below its cap anywhere in the protocol's
// feasible set, the solve is infeasible outright.  Otherwise (and always
// for P4) the cold stage 2 falls back to the exterior-penalty
// multistart, whose smooth slacks can still crawl into a narrow feasible
// sliver.
//
// kGridVerify: the original dense-grid + penalty pipeline, cold only.  It
// is the independent verifier for the descent path: both modes share the
// stage-1 lattice family and the stage-3 anchored polish, so at the
// agreement points they must select the same operating point with
// objectives equal within tolerance (tests/opt_descent_test.cpp,
// bench/solve_cold.cpp).  A trusted seed does not change its path: by the
// path-independence contract below its warm answer is its cold one, so it
// runs the cold pipeline (without the seed) every time.
//
// Path independence (kDescent): cold and warm paths share stage 1
// verbatim and end in the same stage-3 polish anchored at stage 1's
// incumbent, and stage 2 can only override the polished point by a
// macroscopic margin.  When the warm stage 2 *does* claim such a margin
// — or stage 1 found nothing feasible — the warm path falls back to the
// full cold stage 2 before deciding, so the decision inputs are the cold
// ones.  The only way the two paths can then disagree is the cold
// multistart finding a basin that both the full-box scan and the seeded
// descent missed, which the §2 cross-check philosophy already treats as
// solver disagreement; the engine's determinism tests and
// bench/engine_micro guard it.
Expected<opt::VectorResult> dual_solve(
    const opt::Objective& raw, const std::vector<opt::Constraint>& slacks,
    const opt::BatchObjective& batch_fence, const opt::Box& box,
    SolverMode mode, const std::vector<double>& seed = {},
    bool trusted = false, const SolveControl& ctl = {},
    long long spent_before = 0, const PhaseOne& phase1 = {}) {
  EDB_SPAN("solver.dual_solve");
  const bool coarse = mode == SolverMode::kCoarse;
  const bool use_descent = mode == SolverMode::kDescent || coarse;
  const bool warm =
      mode == SolverMode::kDescent && trusted && seed.size() == box.dim();

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

  // Stage 1 — coarse global scan, IDENTICAL in the cold and warm paths:
  // the full-box zooming grid locates the optimum's basin.  Running the
  // exact same scan in both paths matters beyond cost: its incumbent
  // anchors the polish window below.  kDescent stops a round earlier
  // (~3.5e-4 of the box width — well inside the polish window); the
  // descent stage recovers the rest for a fraction of a round's lattice.
  const opt::GridOptions stage1_opts =
      use_descent
          ? opt::GridOptions{.points_per_dim = 65, .rounds = 3, .zoom = 0.15}
          : opt::GridOptions{.points_per_dim = 65, .rounds = 4, .zoom = 0.15};
  auto grid = [&] {
    EDB_SPAN("solver.stage1.grid");
    return opt::grid_refine_min(batch_fence, box, stage1_opts);
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

  // The descent stage's shared budget (cold multistart and warm descent):
  // enough iterations to run the basin to far below the polish window,
  // small enough that a full cold solve stays ~15x under the kGridVerify
  // pipeline's evaluation count.
  const auto descent_opts = [&]() {
    opt::DescentOptions d;
    d.max_iterations = 12;
    return d;
  };

  // Exterior-penalty multistart — kGridVerify's stage 2, and the descent
  // pipeline's fallback when stage 1 found nothing feasible and phase I
  // did not refuse (a sliver the lattice stepped over, or P4).  Its evals
  // count whether or not it finds a point.
  auto penalty_stage2 = [&]() {
    opt::VectorResult r;
    r.value = kInf;
    opt::PenaltyOptions pen_opts;
    // Only an *untrusted* seed joins the multistart: the cold stage 2 of a
    // trusted solve (kGridVerify's, or the warm path's fallback) must be
    // the one a seedless solve runs, and a trusted seed is not part of it.
    if (!trusted && seed.size() == box.dim()) {
      pen_opts.extra_seeds.push_back(seed);
    }
    const auto pen = opt::constrained_min(raw, slacks, box, pen_opts);
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

  // BDCA multistart on `f` — kDescent's cold stage 2 on the fence, and
  // phase I's second step.  Seeded from a scan's incumbent (when it found
  // one) and any untrusted hint; the seeding lattice keeps the global
  // cross-check role the penalty multistart played.
  auto multistart_from = [&](const opt::BatchObjective& f,
                             const opt::VectorResult& scan) {
    opt::DescentOptions dopts = descent_opts();
    if (!scan.x.empty() && std::isfinite(scan.value)) {
      dopts.extra_seeds.push_back(scan.x);
    }
    if (!trusted && seed.size() == box.dim()) {
      dopts.extra_seeds.push_back(seed);
    }
    return opt::bdca_multistart_min(f, box, dopts);
  };
  auto descent_stage2 = [&]() { return multistart_from(batch_fence, grid); };

  // Cold stage 2 of the active mode (also the warm path's fallback).
  auto cold_stage2 = [&]() {
    return use_descent && grid_ok ? descent_stage2() : penalty_stage2();
  };

  // Phase I — kDescent's feasibility certificate for a single-cap
  // subproblem whose coarse scan found nothing feasible: minimise the
  // capped metric over the protocol's own feasible set with the stage-1
  // lattice, then the BDCA multistart from its incumbent (and any
  // untrusted hint, so a feasible hint can never be refused).  A minimum
  // not strictly below the cap answers infeasible; a reachable cap leaves
  // the decision to the penalty multistart, verbatim.
  auto phase1_refuses = [&]() {
    EDB_SPAN("solver.stage2.phase1");
    auto scan = opt::grid_refine_min(phase1.oracle, box, stage1_opts);
    cost.absorb_cost(scan);
    if (scan.value < phase1.cap) return false;
    auto descent = multistart_from(phase1.oracle, scan);
    cost.absorb_cost(descent);
    return !(descent.value < phase1.cap);
  };

  // A warm solve descends from its seed only inside a basin stage 1
  // found; otherwise it runs the cold stage 2.
  const bool warm_descent = warm && grid_ok;
  opt::VectorResult cand;
  {
    EDB_SPAN("solver.stage2");
    if (warm_descent) {
      // The fence keeps the descent strictly feasible.
      cand = opt::bdca_descend(batch_fence, box, box.clamp(seed),
                               descent_opts());
    } else {
      if (use_descent && !grid_ok) {
        if (phase1.oracle && phase1_refuses()) {
          EDB_COUNT("solver.phase1_certified", 1);
          return make_error(ErrorCode::kInfeasible,
                            "no feasible point satisfies the constraints");
        }
        EDB_COUNT("solver.penalty_fallbacks", 1);
      }
      cand = cold_stage2();
    }
  }
  cost.absorb_cost(cand);

  bool cand_ok = !cand.x.empty() && std::isfinite(cand.value);
  if (!grid_ok && !cand_ok) {
    return make_error(ErrorCode::kInfeasible,
                      "no feasible point satisfies the constraints");
  }
  // Infeasibility outranks the deadline: it is the deterministic, cacheable
  // answer, and the transient kDeadlineExceeded would only hide it.
  if (auto stop = interrupted(cost.evaluations)) return *stop;

  // Stage 3 — deep polish: a self-centring grid zoom in a tight window
  // anchored at the stage-1 incumbent (identical across paths), refined to
  // the arithmetic's limits.  Objectives here are flat around interior
  // optima at the sqrt(machine-eps) scale, so an argmin is only pinned
  // down to ~1e-8 in x by its value; anchoring the window and its lattice
  // to the shared stage-1 point makes both paths land on the *same* point
  // inside that flat zone, not just equally good ones.  kDescent thins
  // the lattice (17 points; final spacing ~5e-12 of the box width after
  // 10 zoom rounds — still far below the flat zone).
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
    auto polished =
        opt::grid_refine_min(batch_fence, opt::Box(lo, hi), polish_opts);
    cost.absorb_cost(polished);
    if (std::isfinite(polished.value) && polished.value < best.value) {
      best = polished;
    }
  }

  // The stage-2 result may displace the polished point only by beating it
  // at macroscopic scale — a better basin the coarse scan missed — never
  // by convergence noise (which differs between the cold and warm stage-2
  // solvers and would make the answer path-dependent).
  auto macro_better = [](const opt::VectorResult& challenger,
                         const opt::VectorResult& incumbent) {
    return incumbent.value - challenger.value >
           1e-6 * std::max(std::abs(incumbent.value),
                           std::abs(challenger.value));
  };
  if (cand_ok && macro_better(cand, best) && warm_descent) {
    // The warm descent claims a basin the coarse scan missed.  Decide the
    // rare case with the cold machinery so the warm path cannot override
    // the polished point where the cold path would not have.
    cand = cold_stage2();
    cost.absorb_cost(cand);
    cand_ok = !cand.x.empty() && std::isfinite(cand.value);
  }
  if (cand_ok && macro_better(cand, best)) {
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

// (P1) and (P2) are one problem with the players' roles swapped: minimise
// your own metric under a cap on the other's — E under Lmax for the
// energy player, L under Ebudget for the delay player.
enum class Subproblem { kP1, kP2 };

// `stats`, when non-null, accumulates the dual_solve's oracle cost.
Expected<OperatingPoint> solve_capped(const mac::AnalyticMacModel& model,
                                      const AppRequirements& req,
                                      Subproblem problem, SolverMode mode,
                                      const SolveControl& ctl,
                                      const std::vector<double>& seed,
                                      bool trusted, SolveStats* stats) {
  const bool p1 = problem == Subproblem::kP1;
  const double cap = p1 ? req.l_max : req.e_budget;
  // One spec drives both oracle flavours (see make_scalar_objective).
  const std::vector<MetricSlack> mslacks = {
      {/*uses_energy=*/!p1, /*cap=*/cap}};
  const std::function<double(double, double)> raw =
      [p1](double e, double l) { return p1 ? e : l; };
  PointMetrics metrics(model);
  opt::Objective obj = make_scalar_objective(metrics, /*raw_uses_e=*/p1,
                                             /*raw_uses_l=*/!p1, raw);
  std::vector<opt::Constraint> slacks = make_scalar_slacks(metrics, mslacks);
  BatchFence batch(model, mslacks, /*raw_uses_e=*/p1, /*raw_uses_l=*/!p1,
                   raw);
  // Phase I minimises the capped metric.
  BatchFence capped = metric_fence(model, /*energy=*/!p1);
  auto r = dual_solve(obj, slacks, batch.oracle(), model_box(model), mode,
                      seed, trusted, ctl, stats ? stats->evaluations : 0,
                      PhaseOne{capped.oracle(), cap});
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

ProtocolEnvelope protocol_envelope(const mac::AnalyticMacModel& model) {
  EDB_SPAN("solver.envelope");
  const opt::Box box = model_box(model);
  // The same lattice family as dual_solve's stage 1, refined a little
  // deeper: the envelope feeds threshold comparisons against sweep values,
  // not optimisation, so ~1e-6-of-the-box accuracy is ample.
  const opt::GridOptions grid_opts{.points_per_dim = 65, .rounds = 8,
                                   .zoom = 0.15};
  ProtocolEnvelope env;
  BatchFence fence_e = metric_fence(model, /*energy=*/true);
  BatchFence fence_l = metric_fence(model, /*energy=*/false);
  auto e = opt::grid_refine_min(fence_e.oracle(), box, grid_opts);
  auto l = opt::grid_refine_min(fence_l.oracle(), box, grid_opts);
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
  return solve_capped(model_, req_, Subproblem::kP1, mode_, control_, {},
                      false, nullptr);
}

Expected<OperatingPoint> EnergyDelayGame::solve_p2() const {
  return solve_capped(model_, req_, Subproblem::kP2, mode_, control_, {},
                      false, nullptr);
}

Expected<BargainingOutcome> EnergyDelayGame::solve() const {
  return solve_weighted(0.5);
}

Expected<BargainingOutcome> EnergyDelayGame::solve(
    const SolveHints& hints) const {
  return solve_weighted(0.5, hints);
}

Expected<BargainingOutcome> EnergyDelayGame::solve_weighted(
    double alpha, const SolveHints& hints) const {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "bargaining power alpha must lie in (0, 1)");
  }
  SolveStats stats;
  auto p1 = solve_capped(model_, req_, Subproblem::kP1, mode_, control_,
                         hints.p1, hints.trusted, &stats);
  if (!p1.ok()) return p1.error();
  auto p2 = solve_capped(model_, req_, Subproblem::kP2, mode_, control_,
                         hints.p2, hints.trusted, &stats);
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
  // cap by more than solver tolerance (dual_solve's macro_better margin),
  // the set is empty and P4 would only search for nothing.
  if (out.e_best() > e_cap * (1 + 1e-6) || out.l_best() > l_cap * (1 + 1e-6)) {
    EDB_COUNT("solver.p3_certified", 1);
    return corner_or_infeasible();
  }

  // (P4): maximise the (weighted) Nash product below the disagreement
  // point.  Slacks are normalised by the players' bargaining ranges so the
  // exponents weight *relative* gains; for alpha = 1/2 the argmax equals
  // the paper's plain product.  The objective returns -product when both
  // slacks are positive and a positive violation measure otherwise
  // (continuous across the boundary).
  const double e_range = std::max(e_worst - out.e_best(), 1e-300);
  const double l_range = std::max(l_worst - out.l_best(), 1e-300);
  // One spec drives both oracle flavours (see make_scalar_objective).
  // The caps are x-independent, so hoisting them out of the per-lane
  // combines preserves the scalar bits.
  const std::vector<MetricSlack> mslacks = {
      {/*uses_energy=*/true, /*cap=*/e_cap},
      {/*uses_energy=*/false, /*cap=*/l_cap}};
  const std::function<double(double, double)> raw =
      [e_worst, l_worst, e_range, l_range, alpha](double e, double l) {
        const double se = (e_worst - e) / e_range;
        const double sl = (l_worst - l) / l_range;
        if (se > 0.0 && sl > 0.0) {
          return -std::pow(se, alpha) * std::pow(sl, 1.0 - alpha);
        }
        return (se <= 0.0 ? -se : 0.0) + (sl <= 0.0 ? -sl : 0.0);
      };
  PointMetrics metrics(model_);
  opt::Objective obj =
      make_scalar_objective(metrics, /*raw_uses_e=*/true,
                            /*raw_uses_l=*/true, raw);
  std::vector<opt::Constraint> slacks = make_scalar_slacks(metrics, mslacks);
  BatchFence batch(model_, mslacks, /*raw_uses_e=*/true,
                   /*raw_uses_l=*/true, raw);

  const opt::Box box = model_box(model_);
  auto r = dual_solve(obj, slacks, batch.oracle(), box, mode_, hints.nbs,
                      hints.trusted, control_, stats.evaluations);
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
  return opt::trace_frontier(f1, f2, box, feas,
                             {.points_per_dim = points_per_dim});
}

}  // namespace edb::core
