// End-to-end side of the serving benchmark: the workload's serving tier,
// built afresh in each round, and its timed, fully checked load phases.
//
// Tier shape: cold_wire's server runs in this process with one epoll
// worker loop and a 2-thread engine at the default cache capacity; load
// comes from 4 client connections on the calling thread (leaving the
// fourth CPU of a 4-CPU machine to the engine and the system).
// sweep_inproc drives an in-process TuningService with the same engine
// from the calling thread.
//
// A run is cut into rounds.  Each round sets the tier up (timed: input
// generation incl. catalog expansion, tier start, warm-up), runs the
// timed phases for its share of the run, and tears the tier down.
// cold_wire rounds run a closed loop (throughput, latency) and then an
// open loop at a fixed rate; sweep_inproc rounds run closed loop only.
// Every metric — set-up time included — draws on all rounds, so it samples
// the whole run, not one stretch of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "server/server.h"
#include "service/service.h"

namespace servebench {

inline constexpr int kEngineThreads = 2;
inline constexpr int kWorkerLoops = 1;
inline constexpr int kClientConnections = 4;
inline constexpr int kWindow = 8;  // closed loop, per connection
// Rounds of an end-to-end run.
inline constexpr int kRounds = 5;
// Set-ups per round: the round's own, and set-up-only tiers before it.  A
// set-up takes tens of milliseconds, the scale of a shared machine's
// stalls, so setup_s is the median of many.
inline constexpr int kSetupsPerRound = 4;

struct Args {
  Workload workload = Workload::kColdWire;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // False when the open-loop generator fell behind its schedule: the run
  // measured a lower rate than it claims, so no result is reported.
  bool valid = true;
  std::vector<Metric> metrics;
  // Printed and recorded beside the metrics, not part of the result line.
  std::vector<Metric> extras;

  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
  }
  // Records a failed check (printed on stderr) and clears `correct`.
  void fail(const std::string& why);
};

// The fixed open-loop rate of cold_wire [queries/s]; 0 for sweep_inproc,
// which runs closed loop only.
double open_loop_rate(Workload w);

edb::server::ServerOptions server_options();
edb::service::CoreOptions core_options();
edb::service::ServiceOptions service_options();

struct LoadOutcome {
  double throughput_qps = 0;  // answered queries / closed-loop time
  std::size_t throughput_samples = 0;
  double p50_ms = 0;  // per closed-loop request (wire) or call (sweep_inproc)
  double p99_ms = 0;
  std::size_t latency_samples = 0;
  double cpu_us_per_query = 0;
  // cold_wire's open loop.
  double open_p50_ms = 0;
  double open_p99_ms = 0;
  std::size_t open_samples = 0;
  double lag_p99_ms = 0;
  std::size_t answered = 0;
  // Read when the last timed phase ends, before the checks allocate.
  double peak_rss_mb = 0;
  std::vector<double> setup_s;
  KeyAudit audit;
  // Over the timed phases: the result cache's registry counters and the
  // serve queue's high watermark (cold_wire).
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  double queue_depth_max = 0;
};

// Runs `rounds` rounds sharing `seconds` of timed load; every answer is
// checked (README.md, "Correctness") and failures land in `report`.
LoadOutcome run_load(const Args& args, double seconds, int rounds,
                     Report* report);

}  // namespace servebench
