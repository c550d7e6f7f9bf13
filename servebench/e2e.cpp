#include "e2e.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>

#include "common.h"
#include "core/sweep.h"
#include "loadgen.h"
#include "mac/registry.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/wire.h"
#include "service/core.h"

namespace servebench {
namespace {

using edb::Expected;
using edb::service::TuningQuery;
using edb::service::TuningResult;
namespace server = edb::server;
namespace service = edb::service;

// cold_wire's open-loop rate [queries/s]: a fixed absolute rate, so later
// commits are compared at the same offered load.  Set at about a seventh
// of the closed-loop throughput of the benchmark's first commit (~350 q/s
// on a 4-CPU x86-64 VM, Release build, scalar SIMD backend).  The serve
// thread answers batches in turn, so a slow solve holds up the queries
// that arrive behind it; at a quarter of the throughput, a shared
// machine's slow spells made p50 swing fivefold through that queueing.
constexpr double kColdRate = 50;
// Share of a cold_wire round spent in its closed loop, which gives
// throughput and the reported latencies; the open loop gets the rest.
// Open-loop requests take ~2 ms, so a shared machine's CPU steal, which
// delays each thread hand-off by milliseconds, doubled their p50 from one
// run to the next (IQR/median 0.56 over ten runs): they are recorded
// beside the metrics, not reported as them.
constexpr double kClosedShare = 2.0 / 3.0;

// Open loop: a generator whose sends ran this late at p99 did not hold
// its schedule, and the run is withheld.  Latency is timed from the due
// time, so shorter stalls of a shared machine — which hold up the server
// and the generator alike — are already charged to the latencies.
constexpr double kMaxLagP99Ms = 50.0;
// cold_wire's open-loop requests are numbered from kOpenBase on, apart
// from the closed loop's: the queries an open loop sends then do not
// depend on how far the closed loop before it got, so every run — and
// every commit — times the same deployments.
constexpr std::size_t kOpenBase = std::size_t{1} << 40;
// Largest share of repeated canonical keys a workload may carry.
constexpr double kMaxRepeatShare = 0.01;

// cold_wire: every kColdSampleStride-th reply is kept, and up to
// kColdSamples of them are replayed against a cold reference.
constexpr std::size_t kColdSampleStride = 17;
constexpr std::size_t kColdSamples = 48;
// sweep_inproc: the calls checked against a cold core::run_sweep.
constexpr std::size_t kSweepSampleStride = 40;
constexpr std::size_t kSweepSamples = 3;

bool warm_wire(std::uint16_t port, const std::vector<TuningQuery>& queries) {
  server::WireClient client;
  if (!client.connect("127.0.0.1", port).ok()) return false;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    client.queue_query(queries[i], i);
  }
  if (!client.flush().ok()) return false;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.next_response();
    if (!resp.ok() || !resp->result.has_value()) return false;
  }
  return true;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_point(const edb::core::OperatingPoint& a,
                const edb::core::OperatingPoint& b) {
  if (a.x.size() != b.x.size()) return false;
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    if (!same_bits(a.x[i], b.x[i])) return false;
  }
  return same_bits(a.energy, b.energy) && same_bits(a.latency, b.latency);
}

// Feasibility, outcome bits and the infeasibility code must match.  A
// warm chain derives the reason string of a cell below the feasibility
// frontier from the protocol envelope instead of solving it
// (core/engine.h); within solver tolerance of an envelope threshold that
// string may name another stage than the cold pipeline's, so reason
// strings are counted apart and reported, not failed.
bool same_cell(const edb::core::SweepCell& cold,
               const service::ProtocolOutcome& served, std::size_t* reasons) {
  if (cold.feasible() != served.feasible()) return false;
  if (!cold.feasible()) {
    if (cold.infeasible_reason != served.infeasible_reason) ++*reasons;
    return cold.infeasible_code == served.infeasible_code;
  }
  const auto& a = *cold.outcome;
  const auto& b = *served.outcome;
  return same_point(a.p1, b.p1) && same_point(a.p2, b.p2) &&
         same_point(a.nbs, b.nbs) && same_bits(a.nash_product, b.nash_product);
}

// Rung cells of one served ladder that differ from a cold sequential
// core::run_sweep over the same deployment and Lmax values.
std::size_t ladder_mismatches(
    const std::vector<TuningQuery>& ladder,
    const std::vector<Expected<TuningResult>>& served, std::size_t* reasons) {
  std::vector<double> values;
  for (const TuningQuery& q : ladder) {
    values.push_back(q.scenario.requirements.l_max);
  }
  const auto& base = ladder.front().scenario;
  std::size_t bad = 0;
  for (const std::string& name : ladder.front().protocols) {
    auto model = edb::mac::make_model(name, base.context);
    if (!model.ok()) return ladder.size() * ladder.front().protocols.size();
    const auto cold = edb::core::run_sweep(**model, base.requirements,
                                           edb::core::SweepKind::kLmax, values);
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      const service::ProtocolOutcome* slot = nullptr;
      if (served[k].ok()) {
        for (const auto& p : served[k]->per_protocol) {
          if (p.protocol == name) slot = &p;
        }
      }
      if (!slot || !same_cell(cold.cells[k], *slot, reasons)) ++bad;
    }
  }
  return bad;
}

// Latency quantile q of a run: the median of the rounds' own quantiles.
// A shared machine's slow spells last tens of seconds and hit the mostly
// idle open loop hardest (its threads sleep between requests and wait to
// be woken); the median sets aside a spell that spans fewer than half of
// the rounds, where a quantile of all latencies pooled would take it in.
double round_quantile(const std::vector<std::vector<double>>& rounds,
                      double q) {
  std::vector<double> per_round;
  for (const auto& r : rounds) per_round.push_back(quantile(r, q));
  return median(per_round);
}

// Timed samples pooled over a run's rounds.
struct Pool {
  double closed_s = 0;          // closed-loop time
  std::size_t closed_done = 0;  // queries answered inside it
  std::vector<std::vector<double>> latency_ms;       // per round
  std::vector<std::vector<double>> open_latency_ms;  // per round
  std::vector<double> lag_ms;
  double cpu_s = 0;
  std::size_t answered = 0;
  std::size_t next = 0;               // next closed-loop request
  std::size_t open_next = kOpenBase;  // next open-loop request
};

// Registry counter deltas over one round's timed phases.
class CacheCounters {
 public:
  CacheCounters()
      : hits_(edb::obs::Registry::global().counter("service.cache.hits")),
        misses_(edb::obs::Registry::global().counter("service.cache.misses")),
        evictions_(
            edb::obs::Registry::global().counter("service.cache.evictions")),
        h0_(hits_.value()),
        m0_(misses_.value()),
        e0_(evictions_.value()) {}
  void add_to(LoadOutcome* out) const {
    out->cache_hits += static_cast<double>(hits_.value() - h0_);
    out->cache_misses += static_cast<double>(misses_.value() - m0_);
    out->cache_evictions += static_cast<double>(evictions_.value() - e0_);
  }

 private:
  edb::obs::Counter& hits_;
  edb::obs::Counter& misses_;
  edb::obs::Counter& evictions_;
  std::uint64_t h0_, m0_, e0_;
};

// cold_wire: hashes of the kept replies' bodies, by request.
using KeptReplies = std::map<std::size_t, std::size_t>;

std::size_t body_hash(std::string_view body) {
  return std::hash<std::string_view>{}(body);
}

// A cold_wire tier: its inputs from request `first` on, their QUERY
// frames, and a server.
struct WireTier {
  Inputs in;
  std::vector<std::string> frames;  // requests first, first + 1, ...
  server::TuningServer srv{server_options()};

  WireTier(const Args& args, std::size_t first)
      : in(args.workload, args.seed, first) {
    frames.reserve(kPregenerated);
    for (std::size_t k = first; frames.size() < kPregenerated; ++k) {
      frames.push_back(server::encode_query(in.query(k), k));
    }
  }
  // Starts the server and warms it over the wire; false when it failed.
  bool start(Report* report) {
    if (auto started = srv.start(); !started.ok()) {
      report->fail("server start: " + started.error().to_string());
      return false;
    }
    if (!warm_wire(srv.port(), in.warmup())) {
      report->fail("warm-up over the wire failed");
      return false;
    }
    return true;
  }
};

// A sweep_inproc tier: its inputs from call `first` on, and a service.
struct SweepTier {
  Inputs in;
  service::TuningService svc{service_options()};

  SweepTier(const Args& args, std::size_t first)
      : in(args.workload, args.seed, first) {}
  bool start(Report* report) {
    for (const auto& r : svc.query_batch(in.warmup())) {
      if (!r.ok()) {
        report->fail("warm-up: " + r.error().to_string());
        return false;
      }
    }
    return true;
  }
};

// Sets up kSetupsPerRound tiers for requests from `first` on, timing each,
// and keeps the last one running; null when a set-up failed.
template <class Tier>
std::unique_ptr<Tier> set_up(const Args& args, std::size_t first,
                             LoadOutcome* out, Report* report) {
  std::unique_ptr<Tier> tier;
  for (int i = 0; i < kSetupsPerRound; ++i) {
    tier.reset();
    // Hand the torn-down tiers' memory back to the system, so that every
    // set-up starts from the same heap and peak_rss_mb counts one tier.
    ::malloc_trim(0);
    const double t0 = now_s();
    tier = std::make_unique<Tier>(args, first);
    if (!tier->start(report)) return nullptr;
    out->setup_s.push_back(now_s() - t0);
  }
  return tier;
}

// One cold_wire round: set-up, closed loop, open loop, tear-down.
bool wire_round(const Args& args, double slice, KeptReplies& kept,
                Pool& pool, LoadOutcome* out, Report* report) {
  const std::size_t first = pool.next;
  const auto tier = set_up<WireTier>(args, first, out, report);
  if (!tier) return false;

  // Requests past the pregenerated ones are generated as they are sent.
  const Source source = [&](std::size_t k) {
    return k - first < tier->frames.size()
               ? tier->frames[k - first]
               : server::encode_query(tier->in.query(k), k);
  };
  const Check check = [&](std::size_t k, const server::FrameView& reply) {
    if (reply.type != server::MsgType::kResult || reply.seq != k) {
      return false;
    }
    if (k % kColdSampleStride == 0) kept[k] = body_hash(reply.body);
    return true;
  };

  auto& depth = edb::obs::Registry::global().gauge("service.queue.depth");
  depth.reset();  // the warm-up's burst is not load
  const CacheCounters counters;
  const std::uint16_t port = tier->srv.port();
  const double closed_s = slice * kClosedShare;
  const PhaseResult closed = closed_loop(port, kClientConnections, kWindow,
                                         source, pool.next, closed_s, check);
  pool.next += closed.attempted;
  const PhaseResult open =
      open_loop(port, kClientConnections, kColdRate, source, pool.open_next,
                slice - closed_s, check);
  pool.open_next += open.attempted;
  counters.add_to(out);
  out->queue_depth_max =
      std::max(out->queue_depth_max, static_cast<double>(depth.max()));
  tier->srv.shutdown(/*drain=*/true);

  // The closed loop's answers inside its time; the drain after it runs at
  // a falling load.
  pool.closed_s += closed_s;
  std::vector<double>& latency_ms = pool.latency_ms.emplace_back();
  for (std::size_t i = 0; i < closed.done_at.size(); ++i) {
    if (closed.done_at[i] < closed_s) {
      latency_ms.push_back(closed.latency_ms[i]);
    }
  }
  pool.closed_done += latency_ms.size();
  pool.open_latency_ms.push_back(open.latency_ms);
  pool.lag_ms.insert(pool.lag_ms.end(), open.lag_ms.begin(),
                     open.lag_ms.end());
  pool.cpu_s += closed.cpu_s + open.cpu_s;
  pool.answered += closed.answered + open.answered;
  report->attempted += closed.attempted + open.attempted;
  report->failed += closed.failed + open.failed;
  if (!closed.transport_ok || !open.transport_ok) {
    report->fail("a client connection failed");
  }
  if (closed.failed + open.failed > 0) {
    report->fail(std::to_string(closed.failed + open.failed) +
                 " requests failed or were answered wrongly");
  }
  return true;
}

// cold_wire after the run: the kept replies against a cold ServiceCore.
void check_cold_replies(const Inputs& in, const KeptReplies& kept,
                        Report* report) {
  std::vector<std::size_t> picks;
  for (const auto& [k, hash] : kept) picks.push_back(k);
  picks = evenly(picks, kColdSamples);
  std::vector<TuningQuery> queries;
  for (std::size_t k : picks) queries.push_back(in.query(k));
  service::ServiceCore reference(core_options());
  const auto results = reference.serve(queries);
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < results.size(); ++j) {
    const std::string body =
        frame_body(server::encode_response(results[j], picks[j]));
    if (body_hash(body) != kept.at(picks[j])) {
      ++mismatches;
    }
  }
  std::printf("reference check: %zu sampled replies vs a cold ServiceCore, "
              "%zu mismatched\n",
              results.size(), mismatches);
  if (results.empty()) report->fail("no cold replies were sampled");
  if (mismatches > 0) {
    report->failed += mismatches;
    report->fail(std::to_string(mismatches) +
                 " sampled cold replies differ from the reference");
  }
}

using KeptLadders =
    std::vector<std::pair<std::size_t, std::vector<Expected<TuningResult>>>>;

// One sweep_inproc round: set-up, closed loop of query_batch calls,
// tear-down.
bool sweep_round(const Args& args, double slice, KeptLadders& kept,
                 Pool& pool, LoadOutcome* out, Report* report) {
  const auto tier = set_up<SweepTier>(args, pool.next, out, report);
  if (!tier) return false;
  const Inputs& in = tier->in;
  service::TuningService& svc = tier->svc;

  const CacheCounters counters;
  std::size_t failed = 0;
  std::size_t calls = 0;
  std::vector<double>& latency_ms = pool.latency_ms.emplace_back();
  const double cpu0 = cpu_s();
  const double start = now_s();
  double last = start;
  while (now_s() < start + slice) {
    const std::size_t k = pool.next + calls++;
    const std::vector<TuningQuery> ladder = in.ladder(k);
    const double ts = now_s();
    auto results = svc.query_batch(ladder);
    last = now_s();
    bool ok = results.size() == ladder.size();
    for (const auto& r : results) {
      ok = ok && r.ok() && r->quality == service::ResultQuality::kFull;
    }
    if (ok) {
      latency_ms.push_back((last - ts) * 1e3);
      pool.closed_done += ladder.size();
      pool.answered += ladder.size();
    } else {
      ++failed;
    }
    if (k % kSweepSampleStride == 0 && kept.size() < kSweepSamples) {
      kept.emplace_back(k, std::move(results));
    }
  }
  pool.cpu_s += cpu_s() - cpu0;
  pool.closed_s += last - start;
  pool.next += calls;
  counters.add_to(out);
  svc.shutdown(/*drain=*/true);
  report->attempted += calls;
  report->failed += failed;
  if (failed > 0) {
    report->fail(std::to_string(failed) + " query_batch calls failed");
  }
  return true;
}

// sweep_inproc after the run: the kept ladders against a cold
// core::run_sweep, bit for bit.
void check_ladders(const Inputs& in, const KeptLadders& kept,
                   Report* report) {
  std::size_t mismatched_cells = 0;
  std::size_t checked_cells = 0;
  std::size_t reasons = 0;
  for (const auto& [k, results] : kept) {
    const std::vector<TuningQuery> ladder = in.ladder(k);
    checked_cells += results.size() * ladder.front().protocols.size();
    const std::size_t bad = ladder_mismatches(ladder, results, &reasons);
    mismatched_cells += bad;
    if (bad > 0) ++report->failed;
  }
  std::printf("reference check: %zu sampled ladders (%zu cells) vs a cold "
              "core::run_sweep, %zu cells differ (%zu dead-cell reason "
              "strings differ)\n",
              kept.size(), checked_cells, mismatched_cells, reasons);
  if (kept.empty()) report->fail("no ladders were sampled");
  if (mismatched_cells > 0) {
    report->fail(std::to_string(mismatched_cells) +
                 " sampled ladder cells differ from a cold sweep");
  }
}

}  // namespace

double open_loop_rate(Workload w) {
  return w == Workload::kColdWire ? kColdRate : 0;
}

void Report::fail(const std::string& why) {
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  correct = false;
}

server::ServerOptions server_options() {
  server::ServerOptions opts;
  opts.workers = kWorkerLoops;
  opts.engine.threads = kEngineThreads;
  opts.engine.parallel = true;
  return opts;
}

service::CoreOptions core_options() {
  service::CoreOptions opts;
  opts.engine.threads = kEngineThreads;
  opts.engine.parallel = true;
  return opts;
}

service::ServiceOptions service_options() {
  service::ServiceOptions opts;
  opts.engine.threads = kEngineThreads;
  opts.engine.parallel = true;
  return opts;
}

LoadOutcome run_load(const Args& args, double seconds, int rounds,
                     Report* report) {
  LoadOutcome out;
  const Workload w = args.workload;
  const double slice = seconds / rounds;
  KeptReplies kept_replies;
  KeptLadders kept_ladders;
  Pool pool;
  for (int r = 0; r < rounds && report->correct; ++r) {
    const bool ran =
        w == Workload::kSweepInproc
            ? sweep_round(args, slice, kept_ladders, pool, &out, report)
            : wire_round(args, slice, kept_replies, pool, &out, report);
    if (!ran) return out;
  }
  out.peak_rss_mb = peak_rss_mb();

  // The checks' own copy of the inputs, built after the timed phases.
  const Inputs in(w, args.seed);
  if (w == Workload::kColdWire) {
    check_cold_replies(in, kept_replies, report);
    for (std::size_t k = 0; k < pool.next; ++k) out.audit.add(in.query(k));
    for (std::size_t k = kOpenBase; k < pool.open_next; ++k) {
      out.audit.add(in.query(k));
    }
  } else {
    check_ladders(in, kept_ladders, report);
    for (std::size_t k = 0; k < pool.next; ++k) {
      for (const TuningQuery& q : in.ladder(k)) out.audit.add(q);
    }
  }
  if (out.audit.repeat_share() > kMaxRepeatShare) {
    report->fail("key audit: repeat share " +
                 std::to_string(out.audit.repeat_share()));
  }

  if (w == Workload::kSweepInproc) {
    std::printf("closed loop: %zu query_batch calls of %d rungs over %d "
                "rounds, %.1f s\n",
                pool.next, kLadderRungs, rounds, pool.closed_s);
  } else {
    std::printf("load       : %zu requests over %d rounds; closed loop "
                "%.1f s (%dx%d), open loop %.1f s at %.0f q/s\n",
                pool.next + (pool.open_next - kOpenBase), rounds,
                pool.closed_s, kClientConnections, kWindow,
                seconds - pool.closed_s, open_loop_rate(w));
  }
  out.throughput_qps =
      static_cast<double>(pool.closed_done) / std::max(1e-9, pool.closed_s);
  out.throughput_samples = pool.closed_done;
  out.p50_ms = round_quantile(pool.latency_ms, 0.50);
  out.p99_ms = round_quantile(pool.latency_ms, 0.99);
  for (const auto& r : pool.latency_ms) out.latency_samples += r.size();
  out.answered = pool.answered;
  out.cpu_us_per_query =
      pool.cpu_s * 1e6 /
      static_cast<double>(std::max<std::size_t>(1, pool.answered));
  if (w != Workload::kSweepInproc) {
    out.open_p50_ms = round_quantile(pool.open_latency_ms, 0.50);
    out.open_p99_ms = round_quantile(pool.open_latency_ms, 0.99);
    for (const auto& r : pool.open_latency_ms) out.open_samples += r.size();
    out.lag_p99_ms = quantile(pool.lag_ms, 0.99);
    if (out.lag_p99_ms > kMaxLagP99Ms) {
      std::fprintf(stderr,
                   "INVALID: open-loop sends ran %.3f ms behind schedule at "
                   "p99 (limit %.1f ms)\n",
                   out.lag_p99_ms, kMaxLagP99Ms);
      report->valid = false;
    }
  }
  return out;
}

}  // namespace servebench
