// Small shared helpers of the serving benchmark: clocks, process CPU and
// memory readings, exact sample quantiles.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace servebench {

// Steady-clock seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU seconds of the whole process (every thread).
inline double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Peak resident set size of the process so far [MiB].
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Quantile q in [0, 1] of the samples, interpolated linearly between the
// two nearest order statistics; 0 for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// At most k elements of v, evenly spaced from the front.
template <class T>
std::vector<T> evenly(const std::vector<T>& v, std::size_t k) {
  if (v.size() <= k) return v;
  std::vector<T> out;
  for (std::size_t i = 0; i < k; ++i) out.push_back(v[i * v.size() / k]);
  return out;
}

}  // namespace servebench
