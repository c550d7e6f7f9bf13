// Process-wide metrics registry: named counters, gauges and log-bucket
// histograms for every subsystem (solver, engine, service, sim).
//
// Design constraints, in order:
//
//   lock-cheap  — recording must be safe from any thread and must never
//                 serialize the hot paths it instruments.  Counters stripe
//                 their storage across cache-line-padded atomic slots (one
//                 slot per thread, round-robin assigned), so concurrent
//                 add() calls from different threads touch different cache
//                 lines; histograms stripe the same way behind per-stripe
//                 mutexes that are uncontended by construction.  Snapshots
//                 merge the stripes.
//   deterministic snapshots — metrics live in the registry in first-
//                 registration order and snapshot() renders them in that
//                 order, so two snapshots of the same process state are
//                 byte-identical and diffs across runs line up.
//   non-perturbing — nothing in this file touches RNG streams or
//                 floating-point state of the instrumented code; recording
//                 observes, it never participates.  Instrumented and
//                 uninstrumented runs of the deterministic pipelines are
//                 bit-identical (tests/obs_determinism_test.cpp).
//
// Every build records into this registry, through the obs/obs.h macros
// or through handles a subsystem holds itself.  Some metrics are
// load-bearing: the service cache's hit/miss counters back ServiceStats.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/latency.h"

namespace edb::obs {

// Stripe count for counter/histogram storage.  More stripes than typical
// worker counts, so concurrent recorders almost never share a slot.
inline constexpr std::size_t kStripes = 16;

// Monotonically increasing event count.  add() is a relaxed fetch_add on
// the calling thread's stripe; value() sums the stripes (a snapshot, not
// a fence: adds racing the read may or may not be counted, exactly like
// the sharded cache's counters before the migration).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept;
  std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

// Signed instantaneous level (queue depth, in-flight jobs) with a high
// watermark.  set()/add() are single-atomic operations: gauges record
// state transitions, not per-point work, so striping would only blur the
// level they exist to report.
class Gauge {
 public:
  void set(std::int64_t v) noexcept;
  void add(std::int64_t delta) noexcept;
  std::int64_t value() const noexcept;
  std::int64_t max() const noexcept;  // high watermark since reset
  void reset() noexcept;

 private:
  void raise_max(std::int64_t v) noexcept;
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

// Log-bucket distribution (util/latency.h buckets: geometric from 1 µs to
// 100 s plus under/overflow).  Values are in seconds for latencies; any
// positive unit works as long as the range fits the buckets.  Stripes are
// merged on read via LatencyHistogram::merge().
class Histogram {
 public:
  void record(double v) noexcept;
  // Merged view across stripes (the registry snapshot path).
  LatencyHistogram merged() const;
  void reset() noexcept;

 private:
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    LatencyHistogram h;
  };
  std::array<Stripe, kStripes> stripes_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// One rendered metric; histograms carry their merged quantiles.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;   // counter value / histogram sample count
  std::int64_t gauge = 0;    // gauge level
  std::int64_t gauge_max = 0;
  double mean = 0;           // histogram stats (seconds)
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double p999 = 0;
  double max = 0;
};

struct MetricsSnapshot {
  std::vector<MetricValue> entries;  // registration order

  // Aligned human-readable table (one row per metric).
  std::string text() const;
  // Flat JSON object: {"name": value, ..., "hist.p99": v, ...}\n.
  std::string json() const;
};

// Name-addressed metric store.  counter()/gauge()/histogram() create on
// first use and afterwards return the same instance, so call sites can
// cache references (the obs/obs.h macros do, via function-local statics).
// References stay valid for the registry's lifetime.
//
// Thread-safety: registration takes the registry mutex (first call per
// call site only); recording through the returned references is lock-free
// or stripe-local as described above; snapshot() takes the mutex to walk
// the entry list but reads the metric values without stopping writers.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide instance every instrumentation site records into.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;
  // Zeroes every metric (test isolation; the instruments stay registered).
  // Must not race instruments that report deltas of these values (the
  // service cache does) — reset a private Registry in tests instead.
  void reset();

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    // Exactly one is set, per kind.  deque-of-Entry keeps addresses
    // stable, so the unique_ptr indirection is only for the variant.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(std::string_view name, MetricKind kind);

  mutable std::mutex mutex_;
  std::deque<Entry> entries_;  // registration order; addresses stable
};

}  // namespace edb::obs
