// Cold-solve microbench: the block-oracle acceptance run for the solver
// stack (opt descent + grid stages -> batched fence -> mac SIMD kernels).
//
// Runs repeated cold bargaining solves (fresh EnergyDelayGame, no warm
// start — the service's uncached path) for the three
// paper models and self-times them, like engine_micro (no google-benchmark
// dependency).  Per model and overall it reports
//
//   solves/s        cold end-to-end solve throughput
//   ms/solve        cold end-to-end solve latency
//   evals/solve     oracle evaluations per solve (BargainingOutcome::stats;
//                   deterministic, so it doubles as a regression guard)
//   ns/eval         solve wall time per evaluation
//   oracle_share    fraction of solve time spent inside the block oracle
//   p3_proof_us     cold solve of a (P3)-infeasible requirement pair: Lmax
//                   at the paper-default agreement latency L*, Ebudget
//                   midway between Ebest and E* — both players' optima
//                   miss the other cap, so the empty bargaining set is
//                   certified without a P4 solve (DESIGN.md §2)
//
// and, for every registered protocol, the cost of proving a subproblem
// infeasible against that protocol's feasible cold solve:
//
//   p1_proof_us     cold solve at Lmax = 0.9 l_min (protocol_envelope):
//                   (P1) is refused by the phase-I certificate
//   p2_proof_us     cold solve at Ebudget = 0.9 e_min: P1 solves, then
//                   (P2) is refused by the phase-I certificate
//
// plus a descent-vs-grid parity check for every registered protocol: one
// SolverMode::kGridVerify solve per model must select the same operating
// points (E/L within 1e-6 relative) as the production kDescent pipeline —
// the agreement-point gate behind the solver rewire.  The gate covers the
// 1-D models; S-MAC (2-D) has a known gap (ROADMAP), printed and recorded
// as <tag>_parity_gap_{p1,p2,nbs} but not gated.  Writes BENCH_solver.json
// next to the binary.
//
//   $ ./solve_cold [repeats] [baseline.json]
//
// With a baseline file (bench/baselines/BENCH_solver.baseline.json in CI),
// exits non-zero when
//
//   - any model's evals/solve regresses more than 10% above the baseline
//     (deterministic: only real plan changes trip it),
//   - any model's ns/eval exceeds 3x or solves/s falls below 1/3 of the
//     baseline (loose factors: wall-clock gates must survive noisy
//     shared runners),
//   - any model's cold solve exceeds 1 ms (the ROADMAP acceptance bar),
//   - any model's P3 proof exceeds 3x its feasible ms/solve in the same
//     run or 3x the baseline's p3_proof_us (the penalty multistart these
//     proofs used to run cost ~70x a feasible solve),
//   - any protocol's P1 or P2 proof exceeds 3x its feasible cold solve in
//     the same run or 3x the baseline's p1_proof_us / p2_proof_us (the
//     penalty multistart behind them cost up to ~90x),
//   - or a 1-D model's parity check fails (always fatal, baseline or
//     not).
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/game_framework.h"
#include "core/scenario.h"
#include "mac/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"
#include "util/simd.h"

namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

// Lower-cased protocol name with non-alphanumerics dropped: "X-MAC" ->
// "xmac", stable across the JSON field names and the baseline file.
std::string field_tag(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

// Minimal flat-JSON number lookup ("\"key\": value") — enough for the
// bench_json.h output format; returns false when the key is absent.
bool json_number(const std::string& text, const std::string& key,
                 double* out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

// Worse of the E and L relative differences between two operating points;
// parity holds below 1e-6.
double point_gap(const edb::core::OperatingPoint& a,
                 const edb::core::OperatingPoint& b) {
  return std::max(edb::rel_diff(a.energy, b.energy),
                  edb::rel_diff(a.latency, b.latency));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edb;

  const int repeats = std::max(1, argc > 1 ? std::atoi(argv[1]) : 10);
  const char* baseline_path = argc > 2 ? argv[2] : nullptr;

  const core::Scenario scenario = core::Scenario::paper_default();
  const std::vector<std::string> protocols = {"X-MAC", "DMAC", "LMAC"};

  std::printf("== solve_cold: %d cold solves per paper model (simd: %s) ==\n",
              repeats, util::simd_backend());

  // EDB_TRACE_OUT=<path> captures the run's solver spans as Chrome
  // trace-event JSON.
  obs::begin_env_trace();

  bench::BenchJson json;
  json.integer("repeats", repeats);

  bool regressed = false;
  std::string baseline;
  if (baseline_path) {
    std::ifstream in(baseline_path);
    std::stringstream ss;
    ss << in.rdbuf();
    baseline = ss.str();
    if (baseline.empty()) {
      std::fprintf(stderr, "warning: cannot read baseline %s\n",
                   baseline_path);
    }
  }

  double total_ms = 0;
  long long total_evals = 0;
  int total_solves = 0;
  for (const auto& name : protocols) {
    auto model = mac::make_model(name, scenario.context).take();
    core::EnergyDelayGame game(*model, scenario.requirements);

    // One untimed warm-up solve keeps lazy setup out of the measurement.
    auto first = game.solve();
    if (!first.ok()) {
      std::fprintf(stderr, "%s: cold solve failed: %s\n", name.c_str(),
                   first.error().to_string().c_str());
      return 2;
    }

    const double t0 = now_ms();
    core::SolveStats stats;
    for (int i = 0; i < repeats; ++i) {
      auto outcome = game.solve();
      if (!outcome.ok()) {
        std::fprintf(stderr, "%s: cold solve failed\n", name.c_str());
        return 2;
      }
      stats = outcome->stats;  // deterministic: identical every repeat
    }
    const double elapsed = now_ms() - t0;

    const double solves_per_sec = 1e3 * repeats / elapsed;
    const double ms_per_solve = elapsed / repeats;
    const double evals_per_solve = static_cast<double>(stats.evaluations);
    const double ns_per_eval =
        1e6 * elapsed / (static_cast<double>(stats.evaluations) * repeats);
    const double oracle_share =
        stats.oracle_ns * repeats / (1e6 * elapsed);

    std::printf(
        "%-6s %8.1f solves/s  %6.3f ms/solve  %7.0f evals/solve  "
        "%6.1f ns/eval  (%5.1f%% in block oracle, %lld blocks)\n",
        name.c_str(), solves_per_sec, ms_per_solve, evals_per_solve,
        ns_per_eval, 1e2 * oracle_share, stats.blocks);

    // P3 proof: Lmax at the agreement latency pins P1's optimum at E*,
    // above a budget shaved to midway between Ebest and E*.
    core::AppRequirements p3_req = scenario.requirements;
    p3_req.l_max = first->nbs.latency;
    p3_req.e_budget = 0.5 * (first->e_best() + first->nbs.energy);
    core::EnergyDelayGame p3_game(*model, p3_req);
    const double p3_t0 = now_ms();
    for (int i = 0; i < repeats; ++i) {
      auto proof = p3_game.solve();
      if (proof.ok() || proof.error().message.find("(P3)") ==
                            std::string::npos) {
        std::fprintf(stderr, "%s: P3 proof pair did not prove (P3)\n",
                     name.c_str());
        return 2;
      }
    }
    const double p3_proof_us = 1e3 * (now_ms() - p3_t0) / repeats;
    std::printf("       P3 proof: %8.1f us  (%.2fx a feasible solve)\n",
                p3_proof_us, p3_proof_us / (1e3 * ms_per_solve));

    const std::string tag = field_tag(name);
    json.number((tag + "_p3_proof_us").c_str(), p3_proof_us);
    json.number((tag + "_solves_per_sec").c_str(), solves_per_sec);
    json.number((tag + "_ms_per_solve").c_str(), ms_per_solve);
    json.number((tag + "_evals_per_solve").c_str(), evals_per_solve);
    json.number((tag + "_ns_per_eval").c_str(), ns_per_eval);
    json.integer((tag + "_blocks_per_solve").c_str(), stats.blocks);

    total_ms += elapsed;
    total_evals += stats.evaluations * repeats;
    total_solves += repeats;

    if (!baseline.empty()) {
      double base = 0;
      if (json_number(baseline, tag + "_evals_per_solve", &base)) {
        if (evals_per_solve > 1.1 * base) {
          std::fprintf(stderr,
                       "REGRESSION %s: %.0f evals/solve vs baseline %.0f "
                       "(>10%%)\n",
                       name.c_str(), evals_per_solve, base);
          regressed = true;
        }
      } else {
        std::fprintf(stderr, "warning: baseline lacks %s_evals_per_solve\n",
                     tag.c_str());
      }
      // Wall-clock gates: deliberately loose (3x) so they catch order-of-
      // magnitude regressions, not shared-runner noise.
      if (json_number(baseline, tag + "_ns_per_eval", &base)) {
        if (ns_per_eval > 3.0 * base) {
          std::fprintf(stderr,
                       "REGRESSION %s: %.1f ns/eval vs baseline %.1f (>3x)\n",
                       name.c_str(), ns_per_eval, base);
          regressed = true;
        }
      }
      if (json_number(baseline, tag + "_solves_per_sec", &base)) {
        if (solves_per_sec < base / 3.0) {
          std::fprintf(stderr,
                       "REGRESSION %s: %.1f solves/s vs baseline %.1f "
                       "(<1/3)\n",
                       name.c_str(), solves_per_sec, base);
          regressed = true;
        }
      }
      // Absolute acceptance bar (ROADMAP item 3): cold solve under 1 ms.
      if (ms_per_solve > 1.0) {
        std::fprintf(stderr, "REGRESSION %s: %.3f ms/solve (> 1 ms bar)\n",
                     name.c_str(), ms_per_solve);
        regressed = true;
      }
      // Infeasibility proofs must stay feasible-solve cheap.
      if (p3_proof_us > 3e3 * ms_per_solve) {
        std::fprintf(stderr,
                     "REGRESSION %s: P3 proof %.1f us vs feasible %.1f us "
                     "(>3x)\n",
                     name.c_str(), p3_proof_us, 1e3 * ms_per_solve);
        regressed = true;
      }
      if (json_number(baseline, tag + "_p3_proof_us", &base) &&
          p3_proof_us > 3.0 * base) {
        std::fprintf(stderr,
                     "REGRESSION %s: P3 proof %.1f us vs baseline %.1f "
                     "(>3x)\n",
                     name.c_str(), p3_proof_us, base);
        regressed = true;
      }
    }
  }

  // For every registered protocol: descent-vs-grid parity, then the
  // infeasibility proofs, each against that protocol's own feasible cold
  // solve.
  for (const auto& name : mac::registered_protocols()) {
    auto model = mac::make_model(name, scenario.context).take();
    const std::string tag = field_tag(name);

    // Agreement-point parity: the retained dense-grid pipeline is the
    // verifier for the descent rewire — same selected operating points,
    // objectives within tolerance, at a multiple of the cost.
    auto cold = core::EnergyDelayGame(*model, scenario.requirements).solve();
    core::EnergyDelayGame verify_game(*model, scenario.requirements);
    verify_game.set_solver_mode(core::SolverMode::kGridVerify);
    auto verify = verify_game.solve();
    if (!cold.ok() || !verify.ok()) {
      std::fprintf(stderr, "%s: %s solve failed\n", name.c_str(),
                   cold.ok() ? "grid-verify" : "cold");
      return 2;
    }
    const double gaps[] = {point_gap(cold->p1, verify->p1),
                           point_gap(cold->p2, verify->p2),
                           point_gap(cold->nbs, verify->nbs)};
    const bool gated = model->params().lower().size() == 1;
    const bool parity = std::max({gaps[0], gaps[1], gaps[2]}) < 1e-6;
    std::printf("%-7s parity vs grid-verify: %s  (gap p1 %.1e, p2 %.1e, "
                "nbs %.1e; %lld evals -> %lld, %.1fx fewer)\n",
                name.c_str(),
                !gated ? "not gated (2-D)" : parity ? "ok" : "MISMATCH",
                gaps[0], gaps[1], gaps[2], verify->stats.evaluations,
                cold->stats.evaluations,
                static_cast<double>(verify->stats.evaluations) /
                    static_cast<double>(cold->stats.evaluations));
    json.integer((tag + "_gridverify_evals_per_solve").c_str(),
                 verify->stats.evaluations);
    json.number((tag + "_parity_gap_p1").c_str(), gaps[0]);
    json.number((tag + "_parity_gap_p2").c_str(), gaps[1]);
    json.number((tag + "_parity_gap_nbs").c_str(), gaps[2]);
    if (gated && !parity) {
      std::fprintf(stderr,
                   "PARITY %s: descent and grid-verify pipelines disagree "
                   "at the agreement points\n",
                   name.c_str());
      regressed = true;
    }

    const core::ProtocolEnvelope env = core::protocol_envelope(*model);
    core::AppRequirements p1_req = scenario.requirements;
    p1_req.l_max = 0.9 * env.l_min;
    core::AppRequirements p2_req = scenario.requirements;
    p2_req.e_budget = 0.9 * env.e_min;

    // Mean microseconds per cold solve of `req` after one untimed warm-up;
    // false when a solve does not prove `proves` (nullptr: must solve).
    auto time_us = [&](const core::AppRequirements& req, const char* proves,
                       double* us) {
      core::EnergyDelayGame game(*model, req);
      auto answered = [&] {
        auto r = game.solve();
        if (proves == nullptr) return r.ok();
        return !r.ok() && r.error().message.find(proves) != std::string::npos;
      };
      if (!answered()) return false;
      const double t0 = now_ms();
      for (int i = 0; i < repeats; ++i) {
        if (!answered()) return false;
      }
      *us = 1e3 * (now_ms() - t0) / repeats;
      return true;
    };
    double feasible_us = 0, p1_us = 0, p2_us = 0;
    if (!time_us(scenario.requirements, nullptr, &feasible_us) ||
        !time_us(p1_req, "(P1)", &p1_us) ||
        !time_us(p2_req, "(P2)", &p2_us)) {
      std::fprintf(stderr, "%s: proof pairs did not prove (P1)/(P2)\n",
                   name.c_str());
      return 2;
    }
    std::printf("%-7s P1 proof %7.1f us, P2 proof %7.1f us  "
                "(%.2fx / %.2fx a %.1f us feasible solve)\n",
                name.c_str(), p1_us, p2_us, p1_us / feasible_us,
                p2_us / feasible_us, feasible_us);

    json.number((tag + "_feasible_us").c_str(), feasible_us);
    json.number((tag + "_p1_proof_us").c_str(), p1_us);
    json.number((tag + "_p2_proof_us").c_str(), p2_us);
    if (baseline.empty()) continue;
    for (const auto& [problem, us] :
         {std::pair{"p1", p1_us}, std::pair{"p2", p2_us}}) {
      const std::string key = tag + "_" + problem + "_proof_us";
      if (us > 3.0 * feasible_us) {
        std::fprintf(stderr,
                     "REGRESSION %s: %s proof %.1f us vs feasible %.1f us "
                     "(>3x)\n",
                     name.c_str(), problem, us, feasible_us);
        regressed = true;
      }
      double base = 0;
      if (!json_number(baseline, key, &base)) {
        std::fprintf(stderr, "warning: baseline lacks %s\n", key.c_str());
      } else if (us > 3.0 * base) {
        std::fprintf(stderr,
                     "REGRESSION %s: %s proof %.1f us vs baseline %.1f "
                     "(>3x)\n",
                     name.c_str(), problem, us, base);
        regressed = true;
      }
    }
  }

  const double cold_solves_per_sec = 1e3 * total_solves / total_ms;
  const double ns_per_eval = 1e6 * total_ms / total_evals;
  std::printf("overall: %.1f cold solves/s, %.1f ns/eval\n",
              cold_solves_per_sec, ns_per_eval);

  json.number("cold_solves_per_sec", cold_solves_per_sec);
  json.number("evals_per_solve",
              static_cast<double>(total_evals) / total_solves);
  json.number("ns_per_eval", ns_per_eval);
  json.registry(obs::Registry::global().snapshot());
  json.write_file("BENCH_solver.json");

  const std::string trace_path = obs::end_env_trace();
  if (!trace_path.empty()) std::printf("wrote %s\n", trace_path.c_str());

  return regressed ? 1 : 0;
}
