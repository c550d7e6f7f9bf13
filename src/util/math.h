// Small scalar math helpers shared across modules.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace edb {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// |a - b| <= atol + rtol * max(|a|, |b|)
inline bool approx_equal(double a, double b, double rtol = 1e-9,
                         double atol = 1e-12) {
  return std::abs(a - b) <= atol + rtol * std::max(std::abs(a), std::abs(b));
}

inline double clamp(double v, double lo, double hi) {
  return std::max(lo, std::min(hi, v));
}

// Linear interpolation: t=0 -> a, t=1 -> b.
inline double lerp(double a, double b, double t) { return a + (b - a) * t; }

// Relative difference, safe at zero.
inline double rel_diff(double a, double b) {
  const double denom = std::max({std::abs(a), std::abs(b), 1e-300});
  return std::abs(a - b) / denom;
}

// True when a[0..n) and b[0..n) hold the same bit patterns: -0.0 differs
// from 0.0, and a NaN equals itself.  An inline loop, so a per-point
// caller pays no library call.
inline bool bits_equal(const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// Mean / variance / percentile of a sample.
double mean(const std::vector<double>& xs);
double variance(const std::vector<double>& xs);  // population variance
double stddev(const std::vector<double>& xs);
// Linear-interpolated percentile; p in [0, 100]. Sorts a copy.
double percentile(std::vector<double> xs, double p);

// Evenly spaced grid of `n >= 2` points covering [lo, hi] inclusive.
std::vector<double> linspace(double lo, double hi, int n);
// The same grid written into `out` (resized to n), reusing its storage.
void linspace(double lo, double hi, int n, std::vector<double>& out);
// Log-spaced grid (lo, hi > 0).
std::vector<double> logspace(double lo, double hi, int n);

}  // namespace edb
