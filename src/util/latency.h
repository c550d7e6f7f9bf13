// Fixed-footprint latency histogram for service statistics.
//
// The tuning service (service/service.h) reports p50/p95/p99/p99.9
// serving latency without retaining per-request samples: buckets are
// geometric from 1 µs to 100 s (10 per decade, ~26% wide — tight enough
// that tail quantiles land in a narrow bucket) plus an underflow and an
// overflow bucket, so record() is O(log #buckets) and a quantile
// estimate needs no stored data.  Every histogram shares one bucket-bound
// table, computed once per process, and keeps its counts inline, so
// constructing one allocates nothing.  Quantiles interpolate linearly inside
// the winning bucket and are clamped to the observed min/max — plenty
// for dashboard-grade percentiles.  merge() sums two histograms so
// per-shard instances (obs::Histogram stripes, per-worker stats) can be
// aggregated on snapshot.  Not thread-safe; callers hold their own lock.
#pragma once

#include <array>
#include <cstddef>

namespace edb {

class LatencyHistogram {
 public:
  // Records one latency sample [s].  Negative samples clamp to zero.
  void record(double seconds);

  std::size_t count() const { return count_; }
  double min() const;    // smallest recorded sample [s]; 0 when empty
  double max() const;    // largest recorded sample [s]; 0 when empty
  double total() const { return sum_; }  // sum of samples [s]
  double mean() const;   // 0 when empty

  // Quantile estimate [s] for q in [0, 1]; 0 when empty.
  double quantile(double q) const;

  // Folds `other`'s samples into this histogram: bucket counts and the
  // count/sum add, min/max widen.  Exact for everything except the
  // interpolation detail inside a bucket, i.e. merged quantiles equal the
  // quantiles of recording every sample into one histogram up to that
  // interpolation (bucket choice is identical: the bounds are shared).
  void merge(const LatencyHistogram& other);

  void reset();

 private:
  // Bucket i covers (bound[i-1], bound[i]] of the shared table; the last
  // count is the overflow bucket.
  static constexpr std::size_t kBounds = 8 * 10 + 1;  // 8 decades, 10 each
  static const std::array<double, kBounds>& bounds();

  std::array<std::size_t, kBounds + 1> counts_{};
  std::size_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
};

}  // namespace edb
