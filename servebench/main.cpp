// Serving benchmark: one command per (workload, seed) run.
//
//   servebench --workload cold_wire|sweep_inproc --seed N
//              --seconds S --trace 0|1
//              [--git-sha SHA] [--src-digest HEX] [--out-dir DIR]
//
// --trace 0 runs the workload end to end (e2e.h) and reports its
// end-to-end metrics; --trace 1 runs the traced layer walk (layers.h) and
// reports the per-layer metrics.  Every metric is printed by name with
// its unit and sample count, the run configuration is printed first, and
// the last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
//
// A full record (configuration, every metric, extras) is also written to
// <out-dir>/<workload>-seed<N>-trace<T>.json.  Exit codes: 0 ok, 1 an
// answer or check failed (no result line when nothing ran), 2 bad
// arguments, 3 the open-loop generator fell behind its schedule (no result
// is reported).
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "e2e.h"
#include "layers.h"
#include "util/simd.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "cold_wire|sweep_inproc --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--src-digest HEX] "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args* args, std::string* why) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *why = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) {
        *why = "unknown workload " + value;
        return false;
      }
      args->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0 && args->seconds <= 120)) end = nullptr;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *why = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
      continue;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
      continue;
    } else if (flag == "--src-digest") {
      args->src_digest = value;
      continue;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
      continue;
    } else {
      *why = "unknown flag " + flag;
      return false;
    }
    if (flag != "--workload" && (end == nullptr || *end != '\0')) {
      *why = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_workload) *why = "--workload is required";
  return have_workload;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string config_json(const Args& a) {
#ifdef EDB_OBS
  const bool obs = true;
#else
  const bool obs = false;
#endif
  std::ostringstream o;
  o << "{\"workload\": " << json_string(workload_name(a.workload))
    << ", \"seed\": " << a.seed << ", \"seconds\": " << json_number(a.seconds)
    << ", \"trace\": " << (a.trace ? 1 : 0)
    << ", \"simd_backend\": " << json_string(edb::util::simd_backend())
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"build_type\": " << json_string(SERVEBENCH_BUILD_TYPE)
    << ", \"edb_obs\": " << (obs ? "true" : "false")
    << ", \"git_sha\": " << json_string(a.git_sha)
    << ", \"src_digest\": " << json_string(a.src_digest)
    << ", \"engine_threads\": " << kEngineThreads
    << ", \"worker_loops\": " << kWorkerLoops
    << ", \"client_connections\": " << kClientConnections
    << ", \"window\": " << kWindow
    << ", \"open_loop_rate\": " << json_number(open_loop_rate(a.workload))
    << "}";
  return o.str();
}

std::string metrics_json(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit);
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void run_e2e(const Args& args, Report* report) {
  const LoadOutcome load = run_load(args, args.seconds, kRounds, report);
  if (load.setup_s.empty()) return;
  report->add("throughput_qps", load.throughput_qps, "1/s",
              load.throughput_samples);
  report->add("latency_p50_ms", load.p50_ms, "ms", load.latency_samples);
  report->add("latency_p99_ms", load.p99_ms, "ms", load.latency_samples);
  report->add("cpu_us_per_query", load.cpu_us_per_query, "us", load.answered);
  report->add("peak_rss_mb", load.peak_rss_mb, "MiB", 1);
  report->add("setup_s", median(load.setup_s), "s", load.setup_s.size());
  if (args.workload == Workload::kColdWire) {
    report->extras.push_back(Metric{"open_loop.latency_p50_ms",
                                    load.open_p50_ms, "ms", load.open_samples});
    report->extras.push_back(Metric{"open_loop.latency_p99_ms",
                                    load.open_p99_ms, "ms", load.open_samples});
    report->extras.push_back(Metric{"loadgen.lag_p99_ms", load.lag_p99_ms,
                                    "ms", load.open_samples});
  }
  report->extras.push_back(Metric{"keys.distinct",
                                  static_cast<double>(load.audit.distinct()),
                                  "count", load.audit.queries()});
  report->extras.push_back(Metric{"keys.repeat_share",
                                  load.audit.repeat_share(), "ratio",
                                  load.audit.queries()});
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  std::string why;
  if (!parse_args(argc, argv, &args, &why)) return usage(why.c_str());
  ::mkdir(args.out_dir.c_str(), 0755);

  const std::string config = config_json(args);
  std::printf("config: %s\n", config.c_str());
  std::fflush(stdout);

  Report report;
  if (args.trace) {
    run_traced(args, &report);
  } else {
    run_e2e(args, &report);
  }
  const double failed_frac =
      static_cast<double>(report.failed) /
      static_cast<double>(std::max<std::size_t>(1, report.attempted));
  report.extras.push_back(Metric{"failed_frac", failed_frac, "ratio",
                                 report.attempted});

  bool finite = true;
  for (const Metric& m : report.metrics) finite = finite && std::isfinite(m.value);
  if (!finite) report.fail("a metric is not a finite number");

  std::printf("%-42s %16s  %-8s %s\n", "metric", "value", "unit", "samples");
  for (const auto* list : {&report.metrics, &report.extras}) {
    for (const Metric& m : *list) {
      std::printf("%-42s %16.6g  %-8s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }
  if (!report.valid) return 3;
  if (report.attempted == 0) return 1;  // nothing ran: no result to report

  const std::string path = args.out_dir + "/" +
                           workload_name(args.workload) + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream(path) << "{\"config\": " << config
                      << ", \"correct\": " << (report.correct ? "true" : "false")
                      << ", \"attempted\": " << report.attempted
                      << ", \"failed\": " << report.failed
                      << ", \"metrics\": " << metrics_json(report.metrics, true)
                      << ", \"extras\": " << metrics_json(report.extras, true)
                      << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false", report.attempted,
              report.failed,
              metrics_json(report.metrics, false).c_str());
  return report.correct ? 0 : 1;
}
