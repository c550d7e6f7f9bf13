// Cold-solve microbench: the block-oracle acceptance run for the solver
// stack (opt descent + grid stages -> batched fence -> mac SIMD kernels).
//
// Runs repeated cold bargaining solves (fresh EnergyDelayGame, no warm
// start — the service's uncached path) for the three
// paper models and self-times them, like engine_micro (no google-benchmark
// dependency).  The timing runs kTrials trials, each timing `repeats`
// solves of every model in turn, so a busy moment on the host slows one
// trial of every model rather than every trial of one.  Per model and
// overall it reports
//
//   solves/s        cold end-to-end solve throughput (median trial)
//   ms/solve        cold end-to-end solve latency: the median trial, with
//                   the fastest and slowest trial in brackets
//   evals/solve     oracle evaluations per solve (BargainingOutcome::stats;
//                   deterministic, so it doubles as a regression guard)
//   blocks/solve    block-oracle calls per solve (same source, same use)
//   stage-2 skips   dual solves that skipped stage 2 under the 1-D
//                   one-basin rule (the solver.stage2.skipped counter over
//                   `repeats` untimed solves run before the trials; 3 per
//                   solve when P1, P2 and P4 all skip)
//   ns/eval         solve wall time per evaluation (median trial, with
//                   the trial range in brackets)
//   oracle_share    fraction of solve time spent inside the block oracle;
//                   the oracle is timed only while tracing (EDB_TRACE_OUT),
//                   so an untraced run prints "oracle share n/a (tracing
//                   off)" instead
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
// Each proof is timed against its feasible solve in kTrials interleaved
// trials of `repeats` solves per side; the proof rows and their gates use
// the per-side medians, so a busy host slows both sides of a trial alike
// and one disturbed trial moves neither.  Every wall-clock gate below
// reads a median of kTrials trials.
//
// plus a descent-vs-grid parity check for every registered protocol: one
// SolverMode::kGridVerify solve per model must select the same operating
// points (E/L within 1e-6 relative) as the production kDescent pipeline —
// the agreement-point gate behind the solver rewire.  The gate covers the
// 1-D models; S-MAC (2-D) has a known gap (ROADMAP), printed and recorded
// as <tag>_parity_gap_{p1,p2,nbs} but not gated.  Writes BENCH_solver.json
// next to the binary, with the SIMD backend and the CPU count of the host.
//
//   $ ./solve_cold [repeats] [baseline.json]
//
// With a baseline file (bench/baselines/BENCH_solver.baseline.json in CI),
// exits non-zero when
//
//   - any model's evals/solve or blocks/solve regresses more than 10%
//     above the baseline (deterministic: only real plan changes trip it),
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
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <utility>
#include <sstream>
#include <string>
#include <thread>
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

// Wall-clock trials per timing (odd: one middle).
constexpr int kTrials = 5;

// The median, fastest and slowest of kTrials timings.
struct Spread {
  double median = 0, min = 0, max = 0;
};

// Microseconds per call of each of `calls`: one untimed warm-up call each,
// then kTrials trials, each timing `repeats` calls of every entry in turn.
// Empty as soon as a call returns false.
std::vector<Spread> interleaved_us(
    int repeats, const std::vector<std::function<bool()>>& calls) {
  for (const auto& call : calls) {
    if (!call()) return {};
  }
  std::vector<std::vector<double>> trials(calls.size());
  for (int t = 0; t < kTrials; ++t) {
    for (std::size_t c = 0; c < calls.size(); ++c) {
      const double t0 = now_ms();
      for (int i = 0; i < repeats; ++i) {
        if (!calls[c]()) return {};
      }
      trials[c].push_back(1e3 * (now_ms() - t0) / repeats);
    }
  }
  std::vector<Spread> spreads;
  for (auto& us : trials) {
    std::sort(us.begin(), us.end());
    spreads.push_back({us[kTrials / 2], us.front(), us.back()});
  }
  return spreads;
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

  json.integer("trials", kTrials);
  json.text("simd_backend", util::simd_backend());
  json.integer("cpu_count",
               static_cast<long long>(std::thread::hardware_concurrency()));

  // Untimed first: `repeats` cold solves per model, counting its stage-2
  // skips; they also keep lazy setup out of the timed trials.  Solve stats
  // are deterministic, so these solves' are every timed solve's too.
  std::vector<std::unique_ptr<mac::AnalyticMacModel>> models;
  std::vector<core::EnergyDelayGame> games;
  std::vector<core::BargainingOutcome> firsts;
  std::vector<std::uint64_t> skips;
  obs::Counter& skip_counter = obs::Registry::global().counter(
      "solver.stage2.skipped");
  for (const auto& name : protocols) {
    models.push_back(mac::make_model(name, scenario.context).take());
    games.emplace_back(*models.back(), scenario.requirements);
    const std::uint64_t skips_before = skip_counter.value();
    for (int i = 0; i < repeats; ++i) {
      auto outcome = games.back().solve();
      if (!outcome.ok()) {
        std::fprintf(stderr, "%s: cold solve failed: %s\n", name.c_str(),
                     outcome.error().to_string().c_str());
        return 2;
      }
      if (i == 0) firsts.push_back(*outcome);
    }
    skips.push_back(skip_counter.value() - skips_before);
  }

  // The timed section: kTrials interleaved trials of `repeats` cold solves
  // per model.
  std::vector<std::function<bool()>> solves;
  for (auto& game : games) {
    solves.push_back([&game] { return game.solve().ok(); });
  }
  const std::vector<Spread> solve_us = interleaved_us(repeats, solves);
  if (solve_us.empty()) {
    std::fprintf(stderr, "cold solve failed\n");
    return 2;
  }

  double total_ms = 0;
  long long total_evals = 0;
  for (std::size_t m = 0; m < protocols.size(); ++m) {
    const std::string& name = protocols[m];
    const auto& model = models[m];
    core::EnergyDelayGame& game = games[m];
    const core::BargainingOutcome& first = firsts[m];
    const core::SolveStats& stats = first.stats;
    const Spread& us = solve_us[m];
    const std::uint64_t skipped = skips[m];

    const double ms_per_solve = 1e-3 * us.median;
    const double solves_per_sec = 1e3 / ms_per_solve;
    const double evals_per_solve = static_cast<double>(stats.evaluations);
    const double ns_per_eval = 1e3 * us.median / evals_per_solve;
    char share[48] = "oracle share n/a (tracing off)";
    if (obs::Tracer::enabled()) {
      std::snprintf(share, sizeof share, "%5.1f%% in block oracle",
                    1e2 * stats.oracle_ns / (1e3 * us.median));
    }

    std::printf(
        "%-6s %8.1f solves/s  %6.3f ms/solve [%.3f-%.3f]  %7.0f "
        "evals/solve  %6.1f ns/eval [%.1f-%.1f]  (%s, %lld blocks)\n",
        name.c_str(), solves_per_sec, ms_per_solve, 1e-3 * us.min,
        1e-3 * us.max, evals_per_solve, ns_per_eval,
        1e3 * us.min / evals_per_solve, 1e3 * us.max / evals_per_solve,
        share, stats.blocks);
    std::printf("%-6s stage-2 skipped %llu times in %d solves\n",
                name.c_str(), static_cast<unsigned long long>(skipped),
                repeats);

    // P3 proof: Lmax at the agreement latency pins P1's optimum at E*,
    // above a budget shaved to midway between Ebest and E*.  Timed in
    // trials interleaved with the feasible solve it is gated against.
    core::AppRequirements p3_req = scenario.requirements;
    p3_req.l_max = first.nbs.latency;
    p3_req.e_budget = 0.5 * (first.e_best() + first.nbs.energy);
    core::EnergyDelayGame p3_game(*model, p3_req);
    const std::vector<Spread> p3_us = interleaved_us(
        repeats, {[&] { return game.solve().ok(); },
                  [&] {
                    auto proof = p3_game.solve();
                    return !proof.ok() && proof.error().message.find(
                                              "(P3)") != std::string::npos;
                  }});
    if (p3_us.empty()) {
      std::fprintf(stderr, "%s: P3 proof pair did not prove (P3)\n",
                   name.c_str());
      return 2;
    }
    const double p3_feasible_us = p3_us[0].median;
    const double p3_proof_us = p3_us[1].median;
    std::printf("       P3 proof: %8.1f us  (%.2fx a %.1f us feasible "
                "solve)\n",
                p3_proof_us, p3_proof_us / p3_feasible_us, p3_feasible_us);

    const std::string tag = field_tag(name);
    json.number((tag + "_p3_proof_us").c_str(), p3_proof_us);
    json.number((tag + "_solves_per_sec").c_str(), solves_per_sec);
    json.number((tag + "_ms_per_solve").c_str(), ms_per_solve);
    json.number((tag + "_ms_per_solve_min").c_str(), 1e-3 * us.min);
    json.number((tag + "_ms_per_solve_max").c_str(), 1e-3 * us.max);
    json.number((tag + "_evals_per_solve").c_str(), evals_per_solve);
    json.number((tag + "_ns_per_eval").c_str(), ns_per_eval);
    json.number((tag + "_ns_per_eval_min").c_str(),
                1e3 * us.min / evals_per_solve);
    json.number((tag + "_ns_per_eval_max").c_str(),
                1e3 * us.max / evals_per_solve);
    json.integer((tag + "_blocks_per_solve").c_str(), stats.blocks);
    json.number((tag + "_stage2_skips_per_solve").c_str(),
                static_cast<double>(skipped) / repeats);

    total_ms += ms_per_solve;
    total_evals += stats.evaluations;

    if (!baseline.empty()) {
      for (const auto& [what, per_solve] :
           {std::pair{"evals", evals_per_solve},
            std::pair{"blocks", static_cast<double>(stats.blocks)}}) {
        const std::string key = tag + "_" + what + "_per_solve";
        double base = 0;
        if (!json_number(baseline, key, &base)) {
          std::fprintf(stderr, "warning: baseline lacks %s\n", key.c_str());
        } else if (per_solve > 1.1 * base) {
          std::fprintf(stderr,
                       "REGRESSION %s: %.0f %s/solve vs baseline %.0f "
                       "(>10%%)\n",
                       name.c_str(), per_solve, what, base);
          regressed = true;
        }
      }
      // Wall-clock gates: deliberately loose (3x) so they catch order-of-
      // magnitude regressions, not shared-runner noise.
      double base = 0;
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
      if (p3_proof_us > 3.0 * p3_feasible_us) {
        std::fprintf(stderr,
                     "REGRESSION %s: P3 proof %.1f us vs feasible %.1f us "
                     "(>3x)\n",
                     name.c_str(), p3_proof_us, p3_feasible_us);
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

    // One cold solve of `game`; true when it solves (proves == nullptr)
    // or fails with a reason naming `proves`.
    auto answers = [](core::EnergyDelayGame& game, const char* proves) {
      auto r = game.solve();
      if (proves == nullptr) return r.ok();
      return !r.ok() && r.error().message.find(proves) != std::string::npos;
    };
    core::EnergyDelayGame feasible_game(*model, scenario.requirements);
    core::EnergyDelayGame p1_game(*model, p1_req);
    core::EnergyDelayGame p2_game(*model, p2_req);
    const std::vector<Spread> proof_us = interleaved_us(
        repeats, {[&] { return answers(feasible_game, nullptr); },
                  [&] { return answers(p1_game, "(P1)"); },
                  [&] { return answers(p2_game, "(P2)"); }});
    if (proof_us.empty()) {
      std::fprintf(stderr, "%s: proof pairs did not prove (P1)/(P2)\n",
                   name.c_str());
      return 2;
    }
    const double feasible_us = proof_us[0].median;
    const double p1_us = proof_us[1].median;
    const double p2_us = proof_us[2].median;
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

  const double cold_solves_per_sec = 1e3 * protocols.size() / total_ms;
  const double ns_per_eval = 1e6 * total_ms / total_evals;
  std::printf("overall: %.1f cold solves/s, %.1f ns/eval\n",
              cold_solves_per_sec, ns_per_eval);

  json.number("cold_solves_per_sec", cold_solves_per_sec);
  json.number("evals_per_solve",
              static_cast<double>(total_evals) / protocols.size());
  json.number("ns_per_eval", ns_per_eval);
  json.registry(obs::Registry::global().snapshot());
  json.write_file("BENCH_solver.json");

  const std::string trace_path = obs::end_env_trace();
  if (!trace_path.empty()) std::printf("wrote %s\n", trace_path.c_str());

  return regressed ? 1 : 0;
}
