#include "opt/pareto.h"

#include <algorithm>
#include <cstring>

#include "opt/lattice.h"
#include "util/error.h"
#include "util/math.h"

namespace edb::opt {

bool dominates(const ParetoPoint& a, const ParetoPoint& b) {
  return a.f1 <= b.f1 && a.f2 <= b.f2 && (a.f1 < b.f1 || a.f2 < b.f2);
}

std::vector<ParetoPoint> pareto_filter(std::vector<ParetoPoint> points) {
  // Sort by f1 ascending, breaking ties by f2 ascending; then sweep keeping
  // strictly decreasing f2.
  std::sort(points.begin(), points.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.f1 != b.f1) return a.f1 < b.f1;
              return a.f2 < b.f2;
            });
  std::vector<ParetoPoint> front;
  double best_f2 = kInf;
  for (auto& p : points) {
    if (p.f2 < best_f2) {
      best_f2 = p.f2;
      front.push_back(std::move(p));
    }
  }
  return front;
}

std::vector<ParetoPoint> trace_frontier(const Objective& f1,
                                        const Objective& f2, const Box& box,
                                        const Constraint& feasible_slack,
                                        int points_per_dim) {
  EDB_ASSERT(points_per_dim >= 2, "frontier needs >= 2 grid points");

  const std::size_t n = box.dim();
  std::vector<std::vector<double>> axes(n);
  for (std::size_t i = 0; i < n; ++i) {
    axes[i] = linspace(box.lo(i), box.hi(i), points_per_dim);
  }

  std::vector<ParetoPoint> points;
  std::vector<std::size_t> idx(n, 0);
  std::vector<double> x(n);
  while (true) {
    for (std::size_t i = 0; i < n; ++i) x[i] = axes[i][idx[i]];
    if (!feasible_slack || feasible_slack(x) > 0.0) {
      points.push_back({x, f1(x), f2(x)});
    }
    std::size_t carry = 0;
    while (carry < n) {
      if (++idx[carry] < axes[carry].size()) break;
      idx[carry] = 0;
      ++carry;
    }
    if (carry == n) break;
  }
  return pareto_filter(std::move(points));
}

std::vector<ParetoPoint> trace_frontier(const BatchObjective& f1,
                                        const BatchObjective& f2,
                                        const Box& box,
                                        const BatchConstraint& feasible_slack,
                                        int points_per_dim) {
  EDB_ASSERT(points_per_dim >= 2, "frontier needs >= 2 grid points");

  const std::size_t n = box.dim();
  const auto axes = internal::lattice_axes(box, points_per_dim);

  constexpr std::size_t kBlock = internal::kBlockPoints;
  std::vector<double> xs(kBlock * n);
  std::vector<double> slack(kBlock);
  std::vector<double> keepxs(kBlock * n);
  std::vector<double> v1(kBlock), v2(kBlock);

  std::vector<ParetoPoint> points;
  std::vector<std::size_t> idx(n, 0);
  bool more = true;
  while (more) {
    std::size_t rows = 0;
    while (more && rows < kBlock) {
      double* row = xs.data() + rows * n;
      for (std::size_t i = 0; i < n; ++i) row[i] = axes[i][idx[i]];
      ++rows;
      more = internal::advance(idx, axes);
    }

    // Feasibility over the whole chunk, then f1/f2 only on feasible lanes.
    std::size_t kept = 0;
    if (feasible_slack) {
      feasible_slack(PointBlock{xs.data(), rows, n}, slack.data());
      for (std::size_t r = 0; r < rows; ++r) {
        if (slack[r] > 0.0) {
          std::memcpy(keepxs.data() + kept * n, xs.data() + r * n,
                      n * sizeof(double));
          ++kept;
        }
      }
    } else {
      std::memcpy(keepxs.data(), xs.data(), rows * n * sizeof(double));
      kept = rows;
    }
    if (kept == 0) continue;
    const PointBlock feas{keepxs.data(), kept, n};
    f1(feas, v1.data());
    f2(feas, v2.data());
    for (std::size_t r = 0; r < kept; ++r) {
      const double* row = feas.point(r);
      points.push_back(
          {std::vector<double>(row, row + n), v1[r], v2[r]});
    }
  }
  return pareto_filter(std::move(points));
}

}  // namespace edb::opt
