#include "util/math.h"

#include <cmath>

#include "util/error.h"

namespace edb {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return kNaN;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.empty()) return kNaN;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return kNaN;
  EDB_ASSERT(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return lerp(xs[lo], xs[hi], frac);
}

std::vector<double> linspace(double lo, double hi, int n) {
  std::vector<double> out;
  linspace(lo, hi, n, out);
  return out;
}

void linspace(double lo, double hi, int n, std::vector<double>& out) {
  EDB_ASSERT(n >= 2, "linspace needs n >= 2");
  out.resize(static_cast<std::size_t>(n));
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (int i = 0; i < n; ++i) out[i] = lo + step * i;
  out.back() = hi;  // avoid accumulated rounding on the endpoint
}

std::vector<double> logspace(double lo, double hi, int n) {
  EDB_ASSERT(lo > 0.0 && hi > 0.0, "logspace requires positive bounds");
  std::vector<double> grid = linspace(std::log(lo), std::log(hi), n);
  for (double& g : grid) g = std::exp(g);
  grid.front() = lo;
  grid.back() = hi;
  return grid;
}

}  // namespace edb
