#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "core/game_framework.h"
#include "loadgen.h"
#include "mac/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/wire.h"
#include "service/cache.h"
#include "service/core.h"
#include "service/key.h"
#include "util/rng.h"

namespace servebench {
namespace {

namespace core = edb::core;
namespace mac = edb::mac;
namespace obs = edb::obs;
namespace server = edb::server;
namespace service = edb::service;
using edb::Expected;
using service::TuningQuery;
using service::TuningResult;

// Share of --seconds spent on the shortened end-to-end load.
constexpr double kLoadShare = 0.4;
// Calls per timing of the nanosecond-scale layers (codec, key, cache,
// planner), reached by repeating the walk sample.
constexpr std::size_t kMicroOps = 8192;
constexpr std::size_t kSingles = 32;          // single-query serves
constexpr int kHitReps = 8;                   // repeats of the hit walks
constexpr int kDispatchReps = 20;             // query_batch vs serve pairs
constexpr std::size_t kSolveJobs = 48;        // cold solve_batch jobs
constexpr std::size_t kGameDeployments = 16;  // cold game solves per protocol
constexpr std::size_t kMacDeployments = 8;
constexpr std::size_t kMacBlock = 1024;  // points per evaluate_batch call
constexpr int kMacReps = 4;
constexpr std::size_t kRoundTrips = 1024;
constexpr int kReplayPairs = 5;  // untraced/traced replay pairs

struct Protocol {
  const char* name;
  const char* tag;
  const char* solve_span;
  const char* eval_span;
};
constexpr Protocol kPaperProtocols[] = {
    {"X-MAC", "xmac", "core.game.solve.xmac", "mac.evaluate_batch.xmac"},
    {"DMAC", "dmac", "core.game.solve.dmac", "mac.evaluate_batch.dmac"},
    {"LMAC", "lmac", "core.game.solve.lmac", "mac.evaluate_batch.lmac"},
};
constexpr Protocol kBmac = {"B-MAC", "bmac", nullptr,
                            "mac.evaluate_batch.bmac"};

// Runs f inside an obs::Span named `name` (a string literal) and returns
// its wall time [s].
template <class F>
double timed(const char* name, F&& f) {
  obs::Span span(name);
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

std::size_t reps_for(std::size_t n) {
  return std::max<std::size_t>(1, (kMicroOps + n - 1) / std::max<std::size_t>(1, n));
}

// A prefix of the workload's requests, batched as its tier batches them:
// max_batch queries per ServiceCore::serve on the wire, one ladder per
// query_batch call in process.  queries is the batches concatenated.
struct Sample {
  std::vector<TuningQuery> queries;
  std::vector<std::size_t> batch_sizes;
};

Sample make_sample(const Inputs& in, std::size_t requests) {
  Sample s;
  if (in.workload() == Workload::kSweepInproc) {
    for (std::size_t i = 0; i < requests; ++i) {
      const auto ladder = in.ladder(i);
      s.queries.insert(s.queries.end(), ladder.begin(), ladder.end());
      s.batch_sizes.push_back(ladder.size());
    }
    return s;
  }
  for (std::size_t k = 0; k < requests; ++k) s.queries.push_back(in.query(k));
  const std::size_t batch = server_options().max_batch;
  for (std::size_t i = 0; i < requests; i += batch) {
    s.batch_sizes.push_back(std::min(batch, requests - i));
  }
  return s;
}

// Requests walked and replayed: cold_wire queries, sweep_inproc ladders.
std::size_t walk_requests(Workload w) {
  return w == Workload::kColdWire ? 64 : 2;
}

std::size_t replay_requests(Workload w) {
  return w == Workload::kColdWire ? 128 : 4;
}

// Serves the sample batch by batch on `core`; slot i answers queries[i].
std::vector<Expected<TuningResult>> serve_sample(service::ServiceCore& core,
                                                 const Sample& s) {
  std::vector<Expected<TuningResult>> out;
  std::size_t base = 0;
  for (std::size_t size : s.batch_sizes) {
    const std::vector<TuningQuery> batch(
        s.queries.begin() + static_cast<std::ptrdiff_t>(base),
        s.queries.begin() + static_cast<std::ptrdiff_t>(base + size));
    for (auto& r : core.serve(batch)) out.push_back(std::move(r));
    base += size;
  }
  return out;
}

// ---------------------------------------------------------------- replay --

struct ReplayRun {
  double wall_s = 0;
  double oracle_s = 0;  // block-oracle time inside the solves (MAC kernels)
  std::size_t sink = 0;
};

// One batch through the serving pipeline rebuilt from public calls:
// decode -> key -> cache -> planner (models, plan) -> engine -> install
// -> encode, each stage inside its own span.
void replay_batch(std::size_t base, std::size_t n,
                  const std::vector<std::string>& bodies,
                  const std::vector<Expected<TuningResult>>& answers,
                  service::ShardedResultCache& cache,
                  core::ScenarioEngine& engine, ReplayRun* run) {
  obs::Span batch_span("replay.batch");
  std::vector<TuningQuery> qs(n);
  {
    obs::Span s("server.decode_query");
    for (std::size_t i = 0; i < n; ++i) {
      auto q = server::decode_query(bodies[base + i]);
      if (q.ok()) qs[i] = std::move(q).take();
    }
  }
  struct Slot {
    service::QueryKey key;
    std::string protocol;
    std::size_t query = 0;
  };
  std::vector<Slot> slots;
  {
    obs::Span s("service.key");
    for (std::size_t i = 0; i < n; ++i) {
      auto canon = service::canonical_protocol_set(qs[i].protocols);
      if (!canon.ok()) continue;
      run->sink +=
          service::query_key(qs[i].scenario, *canon, qs[i].options).hash & 1;
      for (const std::string& name : *canon) {
        slots.push_back(Slot{
            service::protocol_key(qs[i].scenario, name, qs[i].options), name,
            i});
      }
    }
  }
  std::vector<std::size_t> missed;  // first slot of each distinct miss
  {
    obs::Span s("service.cache.get");
    std::unordered_set<std::string> seen;
    for (std::size_t j = 0; j < slots.size(); ++j) {
      if (cache.get(slots[j].key)) continue;
      if (seen.insert(slots[j].key.canonical).second) missed.push_back(j);
    }
  }
  if (!missed.empty()) {
    std::vector<std::unique_ptr<mac::AnalyticMacModel>> models;
    core::SweepPlan plan;
    {
      obs::Span s("service.planner");
      std::unordered_map<std::string, std::size_t> model_of;
      std::vector<core::PointQuery> points;
      for (std::size_t j : missed) {
        const TuningQuery& q = qs[slots[j].query];
        const std::string key =
            service::context_key(q.scenario.context).canonical +
            slots[j].protocol;
        auto it = model_of.find(key);
        if (it == model_of.end()) {
          obs::Span m("mac.make_model");
          models.push_back(
              mac::make_model(slots[j].protocol, q.scenario.context).take());
          it = model_of.emplace(key, models.size() - 1).first;
        }
        points.push_back(core::PointQuery{models[it->second].get(),
                                          q.scenario.requirements,
                                          q.options.alpha});
      }
      plan = core::plan_point_queries(points);
    }
    std::vector<core::SweepResult> swept;
    {
      obs::Span s("core.engine.run_sweeps");
      swept = engine.run_sweeps(plan.jobs);
    }
    for (const auto& r : swept) {
      for (const auto& cell : r.cells) {
        if (cell.feasible()) run->oracle_s += cell.outcome->stats.oracle_ns * 1e-9;
      }
    }
    {
      obs::Span s("service.cache.put");
      for (std::size_t k = 0; k < missed.size(); ++k) {
        const Slot& slot = slots[missed[k]];
        const auto& cell = swept[plan.slots[k].job].cells[plan.slots[k].cell];
        cache.put(slot.key,
                  service::ProtocolOutcome{slot.protocol, cell.outcome,
                                           cell.infeasible_reason,
                                           cell.infeasible_code});
      }
    }
  }
  {
    obs::Span s("server.encode_result");
    for (std::size_t i = 0; i < n; ++i) {
      if (answers[base + i].ok()) {
        run->sink += server::encode_result(*answers[base + i], base + i).size();
      }
    }
  }
}

// bodies[i] is the QUERY frame body of s.queries[i].
ReplayRun replay(const Sample& s, const std::vector<std::string>& bodies,
                 const std::vector<Expected<TuningResult>>& answers,
                 bool traced) {
  const auto opts = server_options();
  service::ShardedResultCache cache(opts.cache_capacity, opts.cache_shards);
  core::EngineOptions eo = opts.engine;
  eo.threads = 1;  // single-threaded, so span wall time is CPU time
  core::ScenarioEngine engine(eo);
  if (traced) obs::Tracer::clear();
  obs::Tracer::set_enabled(traced);
  ReplayRun run;
  const double t0 = now_s();
  std::size_t base = 0;
  for (std::size_t size : s.batch_sizes) {
    replay_batch(base, size, bodies, answers, cache, engine, &run);
    base += size;
  }
  run.wall_s = now_s() - t0;
  obs::Tracer::set_enabled(false);
  return run;
}

// Self time per span name: duration minus the part its direct children
// cover (children nest lexically on one thread).
std::map<std::string, double> self_seconds(std::vector<obs::TraceEvent> ev) {
  std::sort(ev.begin(), ev.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;  // parents before their children
            });
  std::vector<double> child(ev.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (i > 0 && ev[i].tid != ev[i - 1].tid) open.clear();
    while (!open.empty() && ev[open.back()].start_ns + ev[open.back()].dur_ns <=
                                ev[i].start_ns) {
      open.pop_back();
    }
    if (!open.empty()) child[open.back()] += static_cast<double>(ev[i].dur_ns);
    open.push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    self[ev[i].name] += (static_cast<double>(ev[i].dur_ns) - child[i]) * 1e-9;
  }
  return self;
}

}  // namespace

void run_traced(const Args& args, Report* report) {
  const Workload w = args.workload;
  const bool sweep = w == Workload::kSweepInproc;
  auto& depth = obs::Registry::global().gauge("service.queue.depth");

  // --- shortened end-to-end load: counters, queue depth, CPU per query ---
  const double load_s = args.seconds * kLoadShare;
  const LoadOutcome load = run_load(args, load_s, 1, report);
  if (!report->correct) return;
  const Inputs in(w, args.seed);
  double queue_depth_max = load.queue_depth_max;
  std::printf("load       : %.0f q/s, %.2f us CPU/query over %.1f s\n",
              load.throughput_qps, load.cpu_us_per_query, load_s);

  // --- layer walk --------------------------------------------------------
  obs::Tracer::clear();
  obs::Tracer::set_enabled(true);
  const Sample walk = make_sample(in, walk_requests(w));
  const std::size_t n = walk.queries.size();
  bool ok = true;

  // Reference answers and the planner's grouping, batch by batch.
  service::ServiceCore batched(core_options());
  std::vector<Expected<TuningResult>> answers;
  timed("service.core.serve_batch",
        [&] { answers = serve_sample(batched, walk); });
  for (const auto& a : answers) {
    if (!a.ok()) {
      report->fail("walk serve: " + a.error().to_string());
      return;
    }
  }
  const service::PlannerStats& ps = batched.planner_stats();
  report->add("service.core.solved_per_lookup",
              static_cast<double>(ps.solved) /
                  static_cast<double>(std::max<std::size_t>(1, ps.protocol_queries)),
              "ratio", ps.protocol_queries);
  report->add("service.core.cells_per_chain",
              static_cast<double>(ps.solved) /
                  static_cast<double>(std::max<std::size_t>(1, ps.sweep_jobs)),
              "count", ps.sweep_jobs);

  // server: wire codec.
  std::size_t reps = reps_for(n);
  std::vector<std::string> qframes(n), rframes(n);
  std::size_t good = 0;
  double t = timed("server.encode_query", [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        qframes[i] = server::encode_query(walk.queries[i], i);
      }
    }
  });
  report->add("server.encode_query_ns", t * 1e9 / (reps * n), "ns", reps * n);
  std::vector<std::string> bodies(n);
  for (std::size_t i = 0; i < n; ++i) bodies[i] = frame_body(qframes[i]);
  t = timed("server.decode_query", [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        good += server::decode_query(bodies[i]).ok();
      }
    }
  });
  report->add("server.decode_query_ns", t * 1e9 / (reps * n), "ns", reps * n);
  t = timed("server.encode_result", [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        rframes[i] = server::encode_result(*answers[i], i);
      }
    }
  });
  report->add("server.encode_result_ns", t * 1e9 / (reps * n), "ns", reps * n);
  double frame_bytes = 0;
  for (const auto& f : rframes) frame_bytes += static_cast<double>(f.size());
  report->add("server.result_frame_bytes", frame_bytes / n, "B", n);
  for (std::size_t i = 0; i < n; ++i) bodies[i] = frame_body(rframes[i]);
  t = timed("server.decode_result", [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        good += server::decode_result(bodies[i]).ok();
      }
    }
  });
  report->add("server.decode_result_ns", t * 1e9 / (reps * n), "ns", reps * n);
  ok = ok && good == 2 * reps * n;

  // service.key: canonical protocol sets, whole-query and protocol keys.
  std::vector<std::vector<std::string>> canon(n);
  t = timed("service.key.protocol_set", [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        auto c = service::canonical_protocol_set(walk.queries[i].protocols);
        if (c.ok()) canon[i] = std::move(c).take();
      }
    }
  });
  report->add("service.key.protocol_set_ns", t * 1e9 / (reps * n), "ns",
              reps * n);
  std::size_t key_bytes = 0;
  t = timed("service.key.query_key", [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        const TuningQuery& q = walk.queries[i];
        key_bytes +=
            service::query_key(q.scenario, canon[i], q.options).canonical.size();
      }
    }
  });
  report->add("service.key.query_key_ns", t * 1e9 / (reps * n), "ns",
              reps * n);
  report->add("service.key.canonical_bytes",
              static_cast<double>(key_bytes) / (reps * n), "B", n);
  std::vector<service::QueryKey> pkeys;
  std::vector<const service::ProtocolOutcome*> outcomes;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < canon[i].size(); ++p) {
      const TuningQuery& q = walk.queries[i];
      pkeys.push_back(service::protocol_key(q.scenario, canon[i][p], q.options));
      outcomes.push_back(&answers[i]->per_protocol[p]);
    }
  }
  const std::size_t m = pkeys.size();
  const std::size_t creps = reps_for(m);
  t = timed("service.key.protocol_key", [&] {
    for (std::size_t r = 0; r < creps; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        const TuningQuery& q = walk.queries[i];
        for (const std::string& name : canon[i]) {
          key_bytes += service::protocol_key(q.scenario, name, q.options).hash & 1;
        }
      }
    }
  });
  report->add("service.key.protocol_key_ns", t * 1e9 / (creps * m), "ns",
              creps * m);

  // service.cache: misses on an empty cache, installs, hits.
  const auto sopts = server_options();
  service::ShardedResultCache cache(sopts.cache_capacity, sopts.cache_shards);
  std::size_t found = 0;
  t = timed("service.cache.get_miss", [&] {
    for (std::size_t r = 0; r < creps; ++r) {
      for (const auto& k : pkeys) found += cache.get(k).has_value();
    }
  });
  report->add("service.cache.get_miss_ns", t * 1e9 / (creps * m), "ns",
              creps * m);
  t = 0;
  for (std::size_t r = 0; r < creps; ++r) {
    cache.clear();
    t += timed("service.cache.put", [&] {
      for (std::size_t j = 0; j < m; ++j) cache.put(pkeys[j], *outcomes[j]);
    });
  }
  report->add("service.cache.put_ns", t * 1e9 / (creps * m), "ns", creps * m);
  t = timed("service.cache.get_hit", [&] {
    for (std::size_t r = 0; r < creps; ++r) {
      for (const auto& k : pkeys) found += cache.get(k).has_value();
    }
  });
  report->add("service.cache.get_hit_ns", t * 1e9 / (creps * m), "ns",
              creps * m);
  ok = ok && found == creps * m;
  const double lookups = load.cache_hits + load.cache_misses;
  report->add("service.cache.hit_rate", load.cache_hits / std::max(1.0, lookups),
              "ratio", static_cast<std::size_t>(lookups));
  report->add("service.cache.evictions_per_kq",
              load.cache_evictions * 1e3 /
                  static_cast<double>(std::max<std::size_t>(1, load.answered)),
              "count/kq", load.answered);

  // service.core: single-query serves, first a miss, then hits.
  std::vector<TuningQuery> distinct;
  {
    std::unordered_set<std::string> seen;
    for (std::size_t i = 0; i < n; ++i) {
      const TuningQuery& q = walk.queries[i];
      if (seen.insert(service::query_key(q.scenario, canon[i], q.options)
                          .canonical)
              .second) {
        distinct.push_back(q);
      }
    }
  }
  const std::vector<TuningQuery> singles(
      distinct.begin(),
      distinct.begin() +
          static_cast<std::ptrdiff_t>(std::min(kSingles, distinct.size())));
  service::ServiceCore single(core_options());
  std::vector<double> miss_us, hit_us;
  for (const TuningQuery& q : singles) {
    miss_us.push_back(1e6 * timed("service.core.serve_miss", [&] {
      ok = single.serve({q})[0].ok() && ok;
    }));
  }
  for (int r = 0; r < kHitReps; ++r) {
    for (const TuningQuery& q : singles) {
      hit_us.push_back(1e6 * timed("service.core.serve_hit", [&] {
        ok = single.serve({q})[0].ok() && ok;
      }));
    }
  }
  const double serve_hit_us = median(hit_us);
  report->add("service.core.serve_hit_us", serve_hit_us, "us", hit_us.size());
  report->add("service.core.serve_miss_us", median(miss_us), "us",
              miss_us.size());

  // service.dispatch: TuningService around the same core work.
  const std::vector<TuningQuery> batch(
      walk.queries.begin(),
      walk.queries.begin() +
          static_cast<std::ptrdiff_t>(sweep ? walk.batch_sizes.front()
                                            : std::min<std::size_t>(32, n)));
  {
    service::TuningService svc(service_options());
    svc.query_batch(batch);
    single.serve(batch);
    std::vector<double> via_service, via_core, submit_wait;
    for (int r = 0; r < kDispatchReps; ++r) {
      via_service.push_back(timed("service.dispatch.query_batch", [&] {
        for (const auto& a : svc.query_batch(batch)) ok = a.ok() && ok;
      }));
      via_core.push_back(timed("service.core.serve_batch_hit", [&] {
        for (const auto& a : single.serve(batch)) ok = a.ok() && ok;
      }));
    }
    for (int r = 0; r < kHitReps; ++r) {
      for (const TuningQuery& q : batch) {
        submit_wait.push_back(1e6 * timed("service.dispatch.submit_wait", [&] {
          ok = svc.wait(svc.submit(q)).ok() && ok;
        }));
      }
    }
    svc.shutdown(/*drain=*/true);
    report->add("service.dispatch.query_batch_overhead_us",
                (median(via_service) - median(via_core)) * 1e6, "us",
                via_service.size());
    report->add("service.dispatch.submit_wait_hit_us", median(submit_wait),
                "us", submit_wait.size());
  }

  // core.engine: planning, warm chains, cold solve batches at 1 and 2
  // threads.
  std::vector<std::unique_ptr<mac::AnalyticMacModel>> models;
  std::vector<core::PointQuery> points;
  {
    std::unordered_map<std::string, std::size_t> model_of;
    for (std::size_t i = 0; i < n; ++i) {
      const TuningQuery& q = walk.queries[i];
      for (const std::string& name : canon[i]) {
        const std::string key =
            service::context_key(q.scenario.context).canonical + name;
        auto it = model_of.find(key);
        if (it == model_of.end()) {
          models.push_back(mac::make_model(name, q.scenario.context).take());
          it = model_of.emplace(key, models.size() - 1).first;
        }
        points.push_back(core::PointQuery{models[it->second].get(),
                                          q.scenario.requirements,
                                          q.options.alpha});
      }
    }
  }
  core::SweepPlan plan;
  const std::size_t preps = reps_for(points.size());
  t = timed("core.engine.plan", [&] {
    for (std::size_t r = 0; r < preps; ++r) plan = core::plan_point_queries(points);
  });
  report->add("core.engine.plan_ns_per_query",
              t * 1e9 / (preps * points.size()), "ns", preps * points.size());
  core::ScenarioEngine engine(core_options().engine);
  std::vector<core::SweepResult> swept;
  t = timed("core.engine.run_sweeps", [&] { swept = engine.run_sweeps(plan.jobs); });
  std::size_t cells = 0;
  double warm_evals = 0;
  std::vector<core::SolveJob> all_jobs;
  for (std::size_t j = 0; j < swept.size(); ++j) {
    for (const auto& cell : swept[j].cells) {
      ++cells;
      if (cell.feasible()) {
        warm_evals += static_cast<double>(cell.outcome->stats.evaluations);
      }
      core::AppRequirements req = plan.jobs[j].base;
      req.l_max = cell.value;
      all_jobs.push_back(
          core::SolveJob{plan.jobs[j].model, req, plan.jobs[j].alpha});
    }
  }
  report->add("core.engine.sweep_us_per_cell", t * 1e6 / std::max<std::size_t>(1, cells),
              "us", cells);
  report->add("core.engine.warm_evals_per_cell",
              warm_evals / std::max<std::size_t>(1, cells), "count", cells);
  const std::vector<core::SolveJob> jobs = evenly(all_jobs, kSolveJobs);
  core::EngineOptions one = core_options().engine;
  one.threads = 1;
  core::ScenarioEngine engine1(one);
  const double t1 =
      timed("core.engine.solve_batch_1t", [&] { engine1.solve_batch(jobs); });
  const double t2 =
      timed("core.engine.solve_batch", [&] { engine.solve_batch(jobs); });
  report->add("core.engine.solve_batch_us_per_job", t2 * 1e6 / jobs.size(), "us",
              jobs.size());
  report->add("core.engine.parallel_efficiency", t1 / (kEngineThreads * t2),
              "ratio", jobs.size());

  // core.game / opt: cold bargaining solves per paper protocol, with one
  // infeasibility proof per deployment (Lmax at half the protocol's
  // reach) beside the workload's own infeasible cells.
  const std::vector<TuningQuery> deployments = evenly(distinct, kGameDeployments);
  std::vector<double> infeasible_us, envelope_us;
  double feasible_s = 0, oracle_s = 0;
  for (const Protocol& p : kPaperProtocols) {
    double solve_s = 0, evals = 0, blocks = 0;
    std::size_t solved = 0;
    for (const TuningQuery& q : deployments) {
      auto model = mac::make_model(p.name, q.scenario.context).take();
      core::ProtocolEnvelope env;
      envelope_us.push_back(1e6 * timed("core.game.envelope", [&] {
        env = core::protocol_envelope(*model);
      }));
      core::EnergyDelayGame game(*model, q.scenario.requirements);
      std::optional<Expected<core::BargainingOutcome>> r;
      const double ts = timed(p.solve_span, [&] { r.emplace(game.solve()); });
      if (r->ok()) {
        solve_s += ts;
        ++solved;
        evals += static_cast<double>((*r)->stats.evaluations);
        blocks += static_cast<double>((*r)->stats.blocks);
        oracle_s += (*r)->stats.oracle_ns * 1e-9;
        feasible_s += ts;
      } else {
        infeasible_us.push_back(ts * 1e6);
      }
      core::AppRequirements probe = q.scenario.requirements;
      probe.l_max = 0.5 * env.l_min;
      core::EnergyDelayGame proof(*model, probe);
      infeasible_us.push_back(1e6 * timed("core.game.infeasible_probe", [&] {
        ok = !proof.solve().ok() && ok;
      }));
    }
    const double per = static_cast<double>(std::max<std::size_t>(1, solved));
    const std::string tag = p.tag;
    report->add("core.game.solve_us." + tag, solve_s * 1e6 / per, "us", solved);
    report->add("opt.evals_per_solve." + tag, evals / per, "count", solved);
    report->add("opt.blocks_per_solve." + tag, blocks / per, "count", solved);
  }
  report->add("core.game.infeasible_solve_us", median(infeasible_us), "us",
              infeasible_us.size());
  report->add("core.game.envelope_us", median(envelope_us), "us",
              envelope_us.size());
  report->add("core.game.oracle_share", oracle_s / std::max(1e-12, feasible_s),
              "ratio", deployments.size());

  // mac: block evaluations at uniform random points of the parameter box.
  edb::Rng rng(args.seed ^ 0x6d6163ULL);
  const std::vector<TuningQuery> mac_deps = evenly(distinct, kMacDeployments);
  for (const Protocol& p : {kPaperProtocols[0], kPaperProtocols[1],
                            kPaperProtocols[2], kBmac}) {
    double eval_s = 0;
    std::size_t evals = 0;
    for (const TuningQuery& q : mac_deps) {
      auto model = mac::make_model(p.name, q.scenario.context).take();
      const auto lo = model->params().lower();
      const auto hi = model->params().upper();
      const std::size_t dim = lo.size();
      std::vector<double> xs(kMacBlock * dim);
      for (std::size_t i = 0; i < kMacBlock; ++i) {
        for (std::size_t k = 0; k < dim; ++k) {
          xs[i * dim + k] = rng.uniform(lo[k], hi[k]);
        }
      }
      std::vector<double> e(kMacBlock), l(kMacBlock), g(kMacBlock);
      for (int r = 0; r < kMacReps; ++r) {
        eval_s += timed(p.eval_span, [&] {
          model->evaluate_batch(xs.data(), kMacBlock, e.data(), l.data(),
                                g.data());
        });
        evals += kMacBlock;
      }
    }
    report->add(std::string("mac.ns_per_eval.") + p.tag, eval_s * 1e9 / evals,
                "ns", evals);
  }

  // server: 1x1 round trips of cache hits over a real socket.
  {
    server::TuningServer srv(server_options());
    server::WireClient client;
    if (!srv.start().ok() || !client.connect("127.0.0.1", srv.port()).ok()) {
      report->fail("round-trip walk: server start or connect failed");
      return;
    }
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      client.queue_query(distinct[i], i);
    }
    ok = client.flush().ok() && ok;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      ok = client.next_response().ok() && ok;
    }
    if (sweep) depth.reset();
    std::vector<double> rt_us;
    for (std::size_t k = 0; k < kRoundTrips; ++k) {
      const TuningQuery& q = distinct[k % distinct.size()];
      rt_us.push_back(1e6 * timed("server.roundtrip_1x1", [&] {
        ok = client.query(q, k).ok() && ok;
      }));
    }
    client.close();
    srv.shutdown(/*drain=*/true);
    // sweep_inproc has no socket tier in its load; its depth is the walk's.
    if (sweep) queue_depth_max = static_cast<double>(depth.max());
    const double rt = median(rt_us);
    report->add("server.roundtrip_1x1_us", rt, "us", rt_us.size());
    report->add("server.transport_us", rt - serve_hit_us, "us", rt_us.size());
    report->add("server.queue_depth_max", queue_depth_max, "count", 1);
  }
  obs::Tracer::set_enabled(false);
  const std::string walk_trace =
      args.out_dir + "/trace_" + workload_name(w) + "_walk.json";
  obs::Tracer::write_chrome_json(walk_trace);
  if (!ok) report->fail("a walked layer call failed");

  // --- replay: the pipeline rebuilt from public calls, traced vs not -----
  const Sample rs = make_sample(in, replay_requests(w));
  std::vector<std::string> rbodies;
  for (std::size_t i = 0; i < rs.queries.size(); ++i) {
    rbodies.push_back(frame_body(server::encode_query(rs.queries[i], i)));
  }
  service::ServiceCore rcore(core_options());
  const auto ranswers = serve_sample(rcore, rs);
  std::vector<double> walls_off, walls_on;
  replay(rs, rbodies, ranswers, false);  // first touch of the replay's memory
  ReplayRun traced;
  for (int k = 0; k < kReplayPairs; ++k) {
    walls_off.push_back(replay(rs, rbodies, ranswers, false).wall_s);
    traced = replay(rs, rbodies, ranswers, true);
    walls_on.push_back(traced.wall_s);
  }
  const std::string replay_trace =
      args.out_dir + "/trace_" + workload_name(w) + "_replay.json";
  obs::Tracer::write_chrome_json(replay_trace);
  auto self = self_seconds(obs::Tracer::collect());
  obs::Tracer::clear();
  // The MAC kernels run inside the engine span: split them out by the
  // solvers' own block-oracle clocks.
  self["core.engine.run_sweeps"] -= traced.oracle_s;
  self["mac.evaluate_batch (oracle)"] = traced.oracle_s;
  const double nq = static_cast<double>(rs.queries.size());
  double layer_sum_us = 0;
  std::string table;
  char line[160];
  std::snprintf(line, sizeof line,
                "layer self time, traced replay of %zu queries "
                "(us/query):\n",
                rs.queries.size());
  table += line;
  for (const auto& [name, secs] : self) {
    const double us = secs * 1e6 / nq;
    if (name != "replay.batch") layer_sum_us += us;
    std::snprintf(line, sizeof line, "  %-30s %12.3f%s\n", name.c_str(), us,
                  name == "replay.batch" ? "  (harness glue, not a layer)" : "");
    table += line;
  }
  const double residual_us = load.cpu_us_per_query - layer_sum_us;
  std::snprintf(line, sizeof line,
                "  %-30s %12.3f\n  %-30s %12.3f\n  %-30s %12.3f\n",
                "sum of layers", layer_sum_us, "end-to-end CPU per query",
                load.cpu_us_per_query, "residual", residual_us);
  table += line;
  std::fputs(table.c_str(), stdout);
  std::ofstream(args.out_dir + "/selftime_" + workload_name(w) + ".txt")
      << table;
  std::printf("traces     : %s, %s\n", walk_trace.c_str(),
              replay_trace.c_str());

  report->add("residual_us", residual_us, "us", rs.queries.size());
  report->add("trace_overhead_frac", 1.0 - median(walls_off) / median(walls_on),
              "ratio", walls_on.size());
}

}  // namespace servebench
