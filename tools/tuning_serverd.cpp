// Standalone tuning daemon: a TuningServer (src/server) on a fixed port,
// serving the binary wire protocol and the newline-delimited JSON debug
// mode until SIGINT/SIGTERM, then a graceful drain.
//
//   $ ./tuning_serverd --port 7421 --workers 2
//   tuning_serverd listening on 127.0.0.1:7421 (workers=2)
//
// JSON debug mode needs nothing but a socket pipe (README "Serve tuning
// queries over a socket"):
//
//   $ printf '{"hello": true}\n{"seq": 1, "lmax": 4.0}\n' | nc 127.0.0.1 7421
//
// A query line may set any field of a binary QUERY, under the scenario
// walk's names ("radio.p_tx", "ring.depth", "req.l_max", ...; the enums
// "arrivals" and "model_version" as integer codes) or the short names
// "lmax", "ebudget", "depth" and "density"; server/wire.h has the grammar.
//
// Admission flags mirror service::ResilienceOptions; --tenant may repeat
// to give individual tenants their own token buckets.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "server/server.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--host ADDR] [--workers N] [--cache N]\n"
      "          [--max-batch N] [--threads N] [--max-queue N]\n"
      "          [--rate QPS] [--burst TOKENS] [--tenant NAME:QPS[:BURST]]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edb;

  server::ServerOptions opts;
  opts.port = 7421;
  opts.workers = 2;
  opts.engine.threads = 2;
  opts.engine.parallel = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--port" && (v = next())) {
      opts.port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (arg == "--host" && (v = next())) {
      opts.host = v;
    } else if (arg == "--workers" && (v = next())) {
      opts.workers = std::max(1, std::atoi(v));
    } else if (arg == "--cache" && (v = next())) {
      opts.cache_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--max-batch" && (v = next())) {
      opts.max_batch = static_cast<std::size_t>(std::max(1, std::atoi(v)));
    } else if (arg == "--threads" && (v = next())) {
      opts.engine.threads = std::max(1, std::atoi(v));
      opts.engine.parallel = opts.engine.threads > 1;
    } else if (arg == "--max-queue" && (v = next())) {
      opts.resilience.max_queue = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--rate" && (v = next())) {
      opts.resilience.rate_limit_qps = std::atof(v);
    } else if (arg == "--burst" && (v = next())) {
      opts.resilience.rate_burst = std::atof(v);
    } else if (arg == "--tenant" && (v = next())) {
      // NAME:QPS[:BURST]
      service::TenantLimit limit;
      const char* colon = std::strchr(v, ':');
      if (!colon) return usage(argv[0]);
      limit.tenant.assign(v, static_cast<std::size_t>(colon - v));
      limit.qps = std::atof(colon + 1);
      if (const char* colon2 = std::strchr(colon + 1, ':')) {
        limit.burst = std::atof(colon2 + 1);
      }
      opts.resilience.tenant_limits.push_back(std::move(limit));
    } else {
      return usage(argv[0]);
    }
  }

  server::TuningServer srv(opts);
  auto started = srv.start();
  if (!started.ok()) {
    std::fprintf(stderr, "tuning_serverd: %s\n",
                 started.error().to_string().c_str());
    return 1;
  }
  std::printf("tuning_serverd listening on %s:%u (workers=%d)\n",
              opts.host.c_str(), srv.port(), opts.workers);
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("tuning_serverd: draining...\n");
  srv.shutdown(/*drain=*/true);
  const auto stats = srv.stats();
  std::printf("tuning_serverd: served %zu queries over %zu connections "
              "(%zu shed, %zu protocol errors)\n",
              stats.queries, stats.accepted, stats.shed,
              stats.protocol_errors);
  std::printf("%s", obs::Registry::global().snapshot().text().c_str());
  return 0;
}
