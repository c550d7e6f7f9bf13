// Streaming moment accumulation (Welford) with confidence intervals.
//
// The validation atlas aggregates per-replication simulation metrics into
// mean / variance / 95% CI without storing samples.  Welford's update is
// numerically stable for long streams; `merge` implements Chan's pairwise
// combination so per-job accumulators filled by a deterministic fan
// (engine::Fan) can be folded in index order after the batch settles, with
// results independent of how jobs were scheduled.
#pragma once

#include <cstddef>

namespace edb {

class Welford {
 public:
  void add(double x);
  // Chan et al. pairwise combine: afterwards *this summarises both
  // sample sets.  Fold in a fixed order for bit-reproducible results.
  void merge(const Welford& other);

  std::size_t count() const { return n_; }
  double mean() const;          // NaN when empty
  double variance() const;      // unbiased sample variance; NaN when n < 2
  double stddev() const;        // sqrt(variance)
  double sem() const;           // standard error of the mean; NaN when n < 2
  // Half-width of the two-sided 95% confidence interval on the mean,
  // using the Student-t quantile for the small replication counts
  // campaigns actually run (exact table for df <= 30, 1.96 beyond).
  // NaN when n < 2; the interval is mean() +/- ci95_halfwidth().
  double ci95_halfwidth() const;

  double min() const;           // NaN when empty
  double max() const;           // NaN when empty

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace edb
