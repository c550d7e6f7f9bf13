// Validation-atlas bench: sim campaigns vs analytic models over the
// catalog, with throughput and error-bound tracking.
//
//   $ ./sim_campaign [threads] [replications] [per_family_cap]
//                    [baseline.json] [atlas.csv]
//
// threads         campaign fan width (default 4; 0 = hardware)
// replications    per scenario (default 3; CI runs a reduced 1)
// per_family_cap  scenarios per family, 0 = full catalog
// baseline.json   optional bench/baselines/BENCH_sim.baseline.json; when
//                 given, mean per-family error or per-replication event
//                 cost regressing >10% beyond it fails the run
// atlas.csv       optional per-scenario error-table dump
//
// When threads > 1 the same campaign also runs single-threaded: the
// speedup lands in BENCH_sim.json and the two runs' fingerprints are
// byte-compared — CI re-proves the campaign determinism contract on
// every push.  Writes BENCH_sim.json next to the binary.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "catalog/validation.h"
#include "engine/fan.h"
#include "mac/model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

// Minimal flat-JSON number lookup, mirroring solve_cold's baseline
// reader: finds "key": value in a one-object file.
double json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edb;
  int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  if (threads <= 0) threads = engine::Fan::hardware_threads();
  const int replications = argc > 2 ? std::atoi(argv[2]) : 3;
  const std::size_t cap =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 0;
  // "" and "-" skip the baseline check (lets callers reach the csv arg).
  const char* baseline_path =
      argc > 4 && argv[4][0] && std::strcmp(argv[4], "-") != 0 ? argv[4]
                                                               : nullptr;
  const char* csv_path = argc > 5 ? argv[5] : nullptr;

  const catalog::Catalog cat = catalog::Catalog::builtin();
  catalog::ValidationOptions opts;
  opts.replications = replications;
  opts.threads = threads;
  opts.per_family_cap = cap;

  std::printf("== Validation atlas: sim campaigns vs analytic models ==\n");
  std::printf("%zu families (cap %zu), R = %d, campaign width %d\n\n",
              cat.families().size(), cap, replications, threads);

  // EDB_TRACE_OUT=<path> captures campaign/replication spans as Chrome
  // trace-event JSON.
  obs::begin_env_trace();

  const auto start = std::chrono::steady_clock::now();
  const auto atlas = catalog::run_validation_atlas(cat, opts);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

  Table table({"family", "scenarios", "dP mean", "dP max", "dL mean",
               "dL max", "delivery"});
  Welford power_err, latency_err;
  for (const auto& fam : atlas.families) {
    if (fam.scenarios == 0) continue;
    char c[6][32];
    std::snprintf(c[0], 32, "%zu", fam.scenarios);
    std::snprintf(c[1], 32, "%.0f%%", 100 * fam.power_err.mean());
    std::snprintf(c[2], 32, "%.0f%%", 100 * fam.power_err.max());
    std::snprintf(c[3], 32, "%.0f%%", 100 * fam.latency_err.mean());
    std::snprintf(c[4], 32, "%.0f%%", 100 * fam.latency_err.max());
    std::snprintf(c[5], 32, "%.3f", fam.delivery.mean());
    table.row({fam.family, c[0], c[1], c[2], c[3], c[4], c[5]});
    power_err.merge(fam.power_err);
    latency_err.merge(fam.latency_err);
  }
  table.print(std::cout);

  const double reps_per_sec = 1e3 * atlas.replications / elapsed_ms;
  std::printf("\n%zu scenarios simulated (%zu skipped), %zu replications, "
              "%llu kernel events in %.0f ms — %.1f replications/s\n",
              atlas.simulated, atlas.skipped, atlas.replications,
              static_cast<unsigned long long>(atlas.events), elapsed_ms,
              reps_per_sec);
  std::printf("sim-vs-model |rel err|: power mean %.1f%% max %.1f%%, "
              "latency mean %.1f%% max %.1f%%\n",
              100 * power_err.mean(), 100 * power_err.max(),
              100 * latency_err.mean(), 100 * latency_err.max());

  // Parallel campaigns must be byte-identical to sequential ones; re-run
  // single-threaded to measure the speedup and prove it.
  double speedup = 1.0;
  bool identical = true;
  if (threads > 1) {
    catalog::ValidationOptions seq = opts;
    seq.threads = 1;
    const auto seq_start = std::chrono::steady_clock::now();
    const auto seq_atlas = catalog::run_validation_atlas(cat, seq);
    const double seq_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - seq_start)
                              .count();
    speedup = seq_ms / elapsed_ms;
    identical = seq_atlas.rows.size() == atlas.rows.size();
    for (std::size_t i = 0; identical && i < atlas.rows.size(); ++i) {
      identical = seq_atlas.rows[i].fingerprint == atlas.rows[i].fingerprint;
    }
    std::printf("single-thread %.0f ms -> %.2fx speedup at %d threads; "
                "fingerprints %s\n",
                seq_ms, speedup, threads,
                identical ? "byte-identical" : "MISMATCH");
  }

  if (csv_path) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "cannot open " << csv_path << "\n";
      return 1;
    }
    catalog::write_validation_csv(csv, atlas);
    std::printf("wrote %s\n", csv_path);
  }

  // Second pass at kV2Queueing fidelity: same catalog, same campaign
  // seeds, predictions from the M/G/1-corrected models (the campaign
  // itself re-runs because the stability fence can move the probed
  // operating point).  The per-family v1-vs-v2 comparison is the error
  // table the tightened baseline gates key on.
  std::printf("\n== kV2Queueing atlas: ring-as-server M/G/1 latency term ==\n");
  catalog::ValidationOptions v2opts = opts;
  v2opts.model_version = mac::ModelVersion::kV2Queueing;
  const auto v2_start = std::chrono::steady_clock::now();
  const auto v2_atlas = catalog::run_validation_atlas(cat, v2opts);
  const double v2_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - v2_start)
                           .count();

  Table v2_table({"family", "n v1", "n v2", "dL v1", "dL v2", "dP v1",
                  "dP v2"});
  Welford v2_power_err, v2_latency_err;
  double bursty_latency_v1 = -1.0, bursty_latency_v2 = -1.0;
  for (std::size_t f = 0; f < v2_atlas.families.size(); ++f) {
    const auto& v1f = atlas.families[f];
    const auto& v2f = v2_atlas.families[f];
    if (v1f.scenarios == 0 && v2f.scenarios == 0) continue;
    char c[6][32];
    std::snprintf(c[0], 32, "%zu", v1f.scenarios);
    std::snprintf(c[1], 32, "%zu", v2f.scenarios);
    std::snprintf(c[2], 32, "%.0f%%", 100 * v1f.latency_err.mean());
    std::snprintf(c[3], 32, "%.0f%%", 100 * v2f.latency_err.mean());
    std::snprintf(c[4], 32, "%.0f%%", 100 * v1f.power_err.mean());
    std::snprintf(c[5], 32, "%.0f%%", 100 * v2f.power_err.mean());
    v2_table.row({v2f.family, c[0], c[1], c[2], c[3], c[4], c[5]});
    v2_power_err.merge(v2f.power_err);
    v2_latency_err.merge(v2f.latency_err);
    if (v2f.family == "bursty-traffic") {
      bursty_latency_v1 = v1f.latency_err.mean();
      bursty_latency_v2 = v2f.latency_err.mean();
    }
  }
  v2_table.print(std::cout);
  std::printf("\nkV2 atlas: %zu scenarios (%zu skipped by the stability "
              "fence or scale caps) in %.0f ms\n",
              v2_atlas.simulated, v2_atlas.skipped, v2_ms);
  std::printf("kV2 sim-vs-model |rel err|: power mean %.1f%%, latency mean "
              "%.1f%% (kV1 %.1f%% / %.1f%%)\n",
              100 * v2_power_err.mean(), 100 * v2_latency_err.mean(),
              100 * power_err.mean(), 100 * latency_err.mean());

  if (csv_path) {
    std::string v2_csv_path(csv_path);
    if (v2_csv_path.size() > 4 &&
        v2_csv_path.compare(v2_csv_path.size() - 4, 4, ".csv") == 0) {
      v2_csv_path.insert(v2_csv_path.size() - 4, "_v2");
    } else {
      v2_csv_path += "_v2";
    }
    std::ofstream csv(v2_csv_path);
    if (!csv) {
      std::cerr << "cannot open " << v2_csv_path << "\n";
      return 1;
    }
    catalog::write_validation_csv(csv, v2_atlas);
    std::printf("wrote %s\n", v2_csv_path.c_str());
  }

  bench::BenchJson json;
  json.integer("scenarios", static_cast<long long>(atlas.simulated));
  json.integer("skipped", static_cast<long long>(atlas.skipped));
  json.integer("replications", static_cast<long long>(atlas.replications));
  json.integer("events", static_cast<long long>(atlas.events));
  json.integer("threads", threads);
  json.number("elapsed_ms", elapsed_ms);
  json.number("replications_per_sec", reps_per_sec);
  json.number("speedup_vs_single", speedup);
  json.number("mean_power_rel_err", power_err.mean());
  json.number("max_power_rel_err", power_err.max());
  json.number("mean_latency_rel_err", latency_err.mean());
  json.number("max_latency_rel_err", latency_err.max());
  json.number("events_per_replication",
              atlas.replications
                  ? static_cast<double>(atlas.events) / atlas.replications
                  : 0.0);
  json.number("v2_mean_power_rel_err", v2_power_err.mean());
  json.number("v2_mean_latency_rel_err", v2_latency_err.mean());
  json.integer("v2_scenarios", static_cast<long long>(v2_atlas.simulated));
  json.integer("v2_skipped", static_cast<long long>(v2_atlas.skipped));
  // Per-family error tables, both fidelities, keyed so baselines can gate
  // any single family (the bursty one carries the tightened gate).
  for (std::size_t f = 0; f < v2_atlas.families.size(); ++f) {
    const auto& v1f = atlas.families[f];
    const auto& v2f = v2_atlas.families[f];
    if (v1f.scenarios == 0 && v2f.scenarios == 0) continue;
    json.number(("v1_latency_err." + v1f.family).c_str(),
                v1f.latency_err.mean());
    json.number(("v2_latency_err." + v2f.family).c_str(),
                v2f.latency_err.mean());
    json.number(("v1_power_err." + v1f.family).c_str(),
                v1f.power_err.mean());
    json.number(("v2_power_err." + v2f.family).c_str(),
                v2f.power_err.mean());
  }
  json.registry(obs::Registry::global().snapshot());
  json.write_file("BENCH_sim.json");

  const std::string trace_path = obs::end_env_trace();
  if (!trace_path.empty()) std::printf("wrote %s\n", trace_path.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: parallel and sequential campaigns disagree\n");
    return 1;
  }

  if (baseline_path) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path);
      return 1;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    bool ok = true;
    const auto check = [&](const char* key, double measured) {
      const double base = json_number(text, key);
      if (base <= 0) {
        std::fprintf(stderr, "baseline missing %s\n", key);
        ok = false;
        return;
      }
      // NaN means the metric became unmeasurable (e.g. nothing delivered
      // from the deep rings) — that is a failure, not a pass.
      if (std::isnan(measured)) {
        std::fprintf(stderr, "FAIL: %s is NaN (metric unmeasurable)\n", key);
        ok = false;
        return;
      }
      if (measured > 1.10 * base) {
        std::fprintf(stderr,
                     "FAIL: %s regressed: %.4g vs baseline %.4g (+%.0f%%, "
                     "budget 10%%)\n",
                     key, measured, base, 100 * (measured / base - 1));
        ok = false;
      } else {
        std::printf("baseline %s: %.4g vs %.4g ok\n", key, measured, base);
      }
    };
    check("mean_power_rel_err", power_err.mean());
    check("mean_latency_rel_err", latency_err.mean());
    check("events_per_replication",
          atlas.replications
              ? static_cast<double>(atlas.events) / atlas.replications
              : 0.0);
    check("v2_mean_power_rel_err", v2_power_err.mean());
    check("v2_mean_latency_rel_err", v2_latency_err.mean());
    check("v2_latency_err.bursty-traffic", bursty_latency_v2);

    // The tentpole's acceptance gate: the queueing term must hold the
    // bursty family's mean latency error at or below 12% — a hard cap,
    // not a relative budget (the kV1 figure sat at ~65%).
    constexpr double kBurstyLatencyCap = 0.12;
    if (std::isnan(bursty_latency_v2) || bursty_latency_v2 < 0.0) {
      std::fprintf(stderr,
                   "FAIL: bursty-traffic kV2 latency error unmeasurable\n");
      ok = false;
    } else if (bursty_latency_v2 > kBurstyLatencyCap) {
      std::fprintf(stderr,
                   "FAIL: bursty-traffic kV2 mean latency error %.1f%% "
                   "exceeds the %.0f%% cap (kV1 was %.1f%%)\n",
                   100 * bursty_latency_v2, 100 * kBurstyLatencyCap,
                   100 * bursty_latency_v1);
      ok = false;
    } else {
      std::printf("bursty-traffic kV2 latency error %.1f%% within the "
                  "%.0f%% cap (kV1 %.1f%%)\n",
                  100 * bursty_latency_v2, 100 * kBurstyLatencyCap,
                  100 * bursty_latency_v1);
    }
    if (!ok) return 1;
  }
  return 0;
}
