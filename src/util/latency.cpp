#include "util/latency.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace edb {

const std::array<double, LatencyHistogram::kBounds>&
LatencyHistogram::bounds() {
  // 10 buckets per decade over [1e-6, 1e2] s, i.e. bounds 1e-6 * 10^(i/10).
  // One underflow bucket below 1 µs and one overflow bucket above 100 s.
  static const std::array<double, kBounds> table = [] {
    std::array<double, kBounds> t;
    for (std::size_t i = 0; i < kBounds; ++i) {
      t[i] = 1e-6 * std::pow(10.0, static_cast<double>(i) / 10);
    }
    return t;
  }();
  return table;
}

void LatencyHistogram::record(double seconds) {
  const double v = std::max(0.0, seconds);
  const auto& upper = bounds();
  const auto it = std::lower_bound(upper.begin(), upper.end(), v);
  counts_[static_cast<std::size_t>(it - upper.begin())]++;
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  sum_ += v;
  ++count_;
}

double LatencyHistogram::min() const { return count_ ? min_ : 0.0; }

double LatencyHistogram::max() const { return count_ ? max_ : 0.0; }

double LatencyHistogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::quantile(double q) const {
  EDB_ASSERT(q >= 0.0 && q <= 1.0, "quantile wants q in [0, 1]");
  if (count_ == 0) return 0.0;
  // Rank of the wanted sample (1-based), then walk the cumulative counts.
  const auto& upper = bounds();
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  std::size_t cum = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    if (static_cast<double>(cum + counts_[b]) < rank) {
      cum += counts_[b];
      continue;
    }
    const double lo = b == 0 ? 0.0 : upper[b - 1];
    const double hi = b < upper.size() ? upper[b] : max_;
    const double frac = (rank - static_cast<double>(cum)) /
                        static_cast<double>(counts_[b]);
    return std::clamp(lo + (hi - lo) * frac, min(), max());
  }
  return max_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  sum_ += other.sum_;
  count_ += other.count_;
}

void LatencyHistogram::reset() {
  counts_.fill(0);
  count_ = 0;
  min_ = max_ = sum_ = 0;
}

}  // namespace edb
