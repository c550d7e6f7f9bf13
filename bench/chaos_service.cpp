// Chaos acceptance bench: serving availability under injected faults.
//
// Serves the same Zipf-skewed query mix as service_throughput under
// pinned deterministic fault plans (util/fault.h) at 0%, 1% and 5%
// per-site fault rates, and measures what the resilience layer
// (service/resilience.h, DESIGN.md §10) actually delivers:
//
//   availability    — fraction of queries answered (possibly degraded);
//   degraded rate   — answers served down the ladder (stale / coarse);
//   p99 latency     — the tail cost of retries, stalls and re-solves;
//   shed rate       — a separate overload phase drives the token bucket
//                     and asserts the front door sheds instead of
//                     queueing without bound.
//
// Each faulted phase first warms half the scenario pool with no plan
// installed (deterministic, all full-quality; see run_phase for why only
// half), then installs the plan and serves the mix from C concurrent
// client threads.  Because
// every injection decision is a pure function of (site, seed, stable
// key), the per-query outcome stream — error code, degradation rung and
// result bits — must be BYTE-IDENTICAL between the 1-client and
// 4-client runs of the same plan.  Any divergence is a determinism bug
// and fails the bench; this is the ISSUE's reproducible-chaos gate.
//
// With a baseline file (bench/baselines/BENCH_chaos.baseline.json in
// CI), availability at the pinned 1% plan must meet the baseline's
// `min_availability_1pct` floor (0.999): at 1% per-site faults the
// ladder must keep effectively every query served.
//
// Results land in BENCH_chaos.json.
//
//   $ ./chaos_service [queries] [distinct] [threads] [baseline.json]
//
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "util/fault.h"
#include "util/rng.h"
#include "workload.h"

namespace {

using namespace edb;

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

// Pinned plans: every site exercised, seeds fixed, so a given (mix,
// plan) pair replays the exact same fault sequence on every machine.
// service.dispatch's fail rate is kept below the retry ladder's
// exhaustion knee (p^4) so hard query losses stay out of the 99.9%
// availability budget by construction.
const char* kPlan1pct =
    "seed=7;engine.job:fail=0.008,stall=0.001@0.2ms,crash=0.001;"
    "planner.solve:fail=0.01;cache.lookup:fail=0.01;"
    "service.dispatch:fail=0.005,stall=0.005@0.2ms";
const char* kPlan5pct =
    "seed=7;engine.job:fail=0.04,stall=0.005@0.2ms,crash=0.005;"
    "planner.solve:fail=0.05;cache.lookup:fail=0.05;"
    "service.dispatch:fail=0.025,stall=0.025@0.2ms";

// Flat-JSON number lookup, same idiom as solve_cold's baseline gate.
bool json_number(const std::string& text, const std::string& key,
                 double* out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

// One query's outcome, rendered to a stable string: error code on
// failure, else the degradation rung plus the exact bits of every
// protocol slot.  Concatenated in submission-index order these form the
// phase's outcome stream — the byte-identity witness.
std::string fingerprint(std::size_t i,
                        const Expected<service::TuningResult>& r) {
  char buf[64];
  std::string out;
  std::snprintf(buf, sizeof(buf), "%zu:", i);
  out += buf;
  if (!r.ok()) {
    out += "err=";
    out += error_code_name(r.error().code);
    out += '\n';
    return out;
  }
  out += service::quality_name(r->quality);
  std::snprintf(buf, sizeof(buf), ":rec=%d", r->recommended);
  out += buf;
  for (const auto& po : r->per_protocol) {
    if (po.feasible()) {
      std::uint64_t e = 0, l = 0;
      std::memcpy(&e, &po.outcome->nbs.energy, sizeof(e));
      std::memcpy(&l, &po.outcome->nbs.latency, sizeof(l));
      std::snprintf(buf, sizeof(buf), ":%016llx/%016llx",
                    static_cast<unsigned long long>(e),
                    static_cast<unsigned long long>(l));
    } else {
      std::snprintf(buf, sizeof(buf), ":%s",
                    error_code_name(po.infeasible_code));
    }
    out += buf;
  }
  out += '\n';
  return out;
}

struct PhaseResult {
  double availability = 0;
  double degraded_rate = 0;
  double p99_ms = 0;
  double wall_ms = 0;
  std::string stream;  // concatenated fingerprints, index order
};

// Serves `mix` once from `clients` submitter threads (round-robin
// partition by index — a stable assignment, not arrival order) against a
// fresh service whose cache was warmed with no fault plan active.
// `plan_spec` is installed for the measured pass only; nullptr serves
// fault-free.
//
// Only the even pool ranks are warmed: warm keys make the stale rung
// reachable (a persistently faulting miss path still has yesterday's
// full-quality answer), while the cold odd ranks keep the coarse rung
// live — a cold key whose planner.solve stream fires can only ever be
// served coarse (degraded answers are never cached, so it stays cold).
// A fully warmed cache would need two independent fault streams to
// coincide on one key before anything degrades, and the ladder would sit
// unexercised at bench rates.
PhaseResult run_phase(const std::vector<service::TuningQuery>& mix,
                      const std::vector<core::Scenario>& pool,
                      const std::vector<std::string>& protocols,
                      const char* plan_spec, int engine_threads,
                      int clients) {
  service::ServiceOptions opts;
  opts.engine.threads = engine_threads;
  opts.engine.parallel = engine_threads > 1;
  service::TuningService service(opts);

  fault::uninstall();
  for (std::size_t k = 0; k < pool.size(); k += 2) {
    service::TuningQuery q;
    q.scenario = pool[k];
    q.protocols = protocols;
    auto r = service.query(q);
    if (!r.ok()) {
      std::printf("WARM PASS FAILED: %s\n", r.error().to_string().c_str());
      std::exit(1);
    }
  }

  if (plan_spec) {
    auto plan = fault::FaultPlan::parse(plan_spec);
    if (!plan.ok()) {
      std::printf("BAD PLAN %s: %s\n", plan_spec,
                  plan.error().to_string().c_str());
      std::exit(1);
    }
    fault::install(std::move(plan).take());
  }
  // The measured pass's tail only: drop the warm pass's samples (and any
  // earlier phase's) from the process-wide latency histogram.
  obs::Registry::global().histogram("service.latency").reset();

  std::vector<service::Ticket> tickets(mix.size());
  const double t0 = now_ms();
  {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < mix.size();
             i += static_cast<std::size_t>(clients)) {
          tickets[i] = service.submit(mix[i]);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  std::vector<Expected<service::TuningResult>> results;
  results.reserve(tickets.size());
  for (const auto& t : tickets) results.push_back(service.wait(t));
  const double wall_ms = now_ms() - t0;
  fault::uninstall();

  PhaseResult out;
  out.wall_ms = wall_ms;
  std::size_t ok = 0, degraded = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) {
      ++ok;
      if (results[i]->quality != service::ResultQuality::kFull) ++degraded;
    }
    out.stream += fingerprint(i, results[i]);
  }
  out.availability = static_cast<double>(ok) / results.size();
  out.degraded_rate = static_cast<double>(degraded) / results.size();
  out.p99_ms = obs::Registry::global()
                   .histogram("service.latency")
                   .merged()
                   .quantile(0.99) *
               1e3;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int n_queries = std::max(1, argc > 1 ? std::atoi(argv[1]) : 1200);
  const int distinct = std::max(1, argc > 2 ? std::atoi(argv[2]) : 24);
  const int threads = std::max(1, argc > 3 ? std::atoi(argv[3]) : 4);
  const char* baseline_path = argc > 4 ? argv[4] : nullptr;
  const std::vector<std::string> protocols = {"X-MAC", "DMAC"};

  std::printf("== chaos_service: %d queries, %d distinct scenarios, "
              "%d engine threads ==\n",
              n_queries, distinct, threads);

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

  // Same mix shape as service_throughput (bench/workload.h), under this
  // bench's own pinned seed, so the fault plan sees realistic key
  // popularity and the historical mix bytes stay put.
  const std::vector<core::Scenario> pool = bench::scenario_pool(distinct);
  const std::vector<service::TuningQuery> mix =
      bench::zipf_mix(pool, n_queries, 20260808, protocols);

  bench::BenchJson json;
  json.integer("queries", n_queries);
  json.integer("distinct_scenarios", distinct);
  json.integer("threads", threads);

  bool failed = false;

  struct Phase {
    const char* tag;
    const char* plan;  // nullptr = fault-free
  };
  const Phase phases[] = {
      {"0pct", nullptr}, {"1pct", kPlan1pct}, {"5pct", kPlan5pct}};

  double availability_1pct = 0;
  for (const Phase& ph : phases) {
    // The determinism gate: the same plan served from 1 and 4 client
    // threads must yield byte-identical outcome streams.
    const PhaseResult r1 =
        run_phase(mix, pool, protocols, ph.plan, threads, /*clients=*/1);
    const PhaseResult r4 =
        run_phase(mix, pool, protocols, ph.plan, threads, /*clients=*/4);
    const bool identical = r1.stream == r4.stream;
    std::printf(
        "%-4s : availability %.4f  degraded %.4f  p99 %.2f ms  "
        "%.0f ms wall  [1 vs 4 clients: %s]\n",
        ph.tag, r4.availability, r4.degraded_rate, r4.p99_ms, r4.wall_ms,
        identical ? "byte-identical" : "MISMATCH");
    if (!identical) {
      std::printf("DETERMINISM FAILURE at %s: outcome streams diverge "
                  "across client thread counts\n",
                  ph.tag);
      failed = true;
    }
    if (!ph.plan &&
        (r4.availability != 1.0 || r4.degraded_rate != 0.0)) {
      std::printf("FAULT-FREE PHASE NOT CLEAN: availability %.6f, "
                  "degraded %.6f (both must be exactly 1 and 0)\n",
                  r4.availability, r4.degraded_rate);
      failed = true;
    }
    if (std::strcmp(ph.tag, "1pct") == 0) {
      availability_1pct = r4.availability;
    }
    const std::string tag = ph.tag;
    json.number(("availability_" + tag).c_str(), r4.availability);
    json.number(("degraded_rate_" + tag).c_str(), r4.degraded_rate);
    json.number(("p99_ms_" + tag).c_str(), r4.p99_ms);
    json.number(("wall_ms_" + tag).c_str(), r4.wall_ms);
    json.integer(("deterministic_" + tag).c_str(), identical ? 1 : 0);
  }

  // --- overload phase: the front door must shed, not queue forever -------
  // A starved token bucket (refill ~0, burst 8) against a burst of 64
  // submissions: at most burst + epsilon admissions, the rest come back
  // as immediately-failed kResourceExhausted tickets.
  {
    service::ServiceOptions opts;
    opts.engine.threads = 1;
    opts.engine.parallel = false;
    opts.resilience.rate_limit_qps = 1e-6;
    opts.resilience.rate_burst = 8;
    service::TuningService service(opts);
    service::TuningQuery q;
    q.scenario = pool[0];
    q.protocols = protocols;
    std::vector<service::Ticket> tickets;
    for (int i = 0; i < 64; ++i) tickets.push_back(service.submit(q));
    std::size_t shed = 0;
    for (const auto& t : tickets) {
      auto r = service.wait(t);
      if (!r.ok() && r.error().code == ErrorCode::kResourceExhausted) ++shed;
    }
    const auto stats = service.stats();
    const double shed_rate = static_cast<double>(shed) / tickets.size();
    std::printf("shed : %zu/%zu over the rate limit (stats.shed %zu)\n",
                shed, tickets.size(), stats.shed);
    if (shed == 0 || shed != stats.shed) {
      std::printf("SHED FAILURE: overload must shed at the front door and "
                  "account for it (shed %zu, stats.shed %zu)\n",
                  shed, stats.shed);
      failed = true;
    }
    json.number("shed_rate_overload", shed_rate);
    json.integer("shed_overload", static_cast<long long>(shed));
  }

  // --- baseline gate -----------------------------------------------------
  if (!baseline.empty()) {
    double floor_1pct = 0;
    if (json_number(baseline, "min_availability_1pct", &floor_1pct)) {
      if (availability_1pct < floor_1pct) {
        std::printf("REGRESSION: availability %.6f at 1%% faults is below "
                    "the baseline floor %.6f\n",
                    availability_1pct, floor_1pct);
        failed = true;
      } else {
        std::printf("availability gate: %.6f >= %.6f at 1%% faults\n",
                    availability_1pct, floor_1pct);
      }
    } else {
      std::fprintf(stderr,
                   "warning: baseline lacks min_availability_1pct\n");
    }
  }

  json.registry(edb::obs::Registry::global().snapshot());
  json.write_file("BENCH_chaos.json");
  std::printf("%s\n", failed ? "CHAOS GATES FAILED" : "chaos gates passed");
  return failed ? 1 : 0;
}
