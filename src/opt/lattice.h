// Shared lattice-scan plumbing for the dense-scan solvers (opt/grid.h,
// opt/pareto.h, opt/descent.h): axis construction, odometer advance, and
// the block size their block-oracle flavours chunk by.  Internal to
// edb_opt — grid.h includes it only for its templates' bodies.
#pragma once

#include <cstddef>
#include <vector>

#include "opt/bounds.h"
#include "util/math.h"

namespace edb::opt::internal {

// Lattice points per block-oracle call.  Large enough to amortise the
// oracle's per-call setup (the kernel's hoisted constants, the block's
// bookkeeping), small enough that the scratch buffers stay cache-resident.
inline constexpr std::size_t kBlockPoints = 512;

inline std::vector<std::vector<double>> lattice_axes(const Box& box,
                                                     int per_dim) {
  std::vector<std::vector<double>> axes(box.dim());
  for (std::size_t i = 0; i < box.dim(); ++i) {
    axes[i] = linspace(box.lo(i), box.hi(i), per_dim);
  }
  return axes;
}

// Advances the odometer; returns false when the lattice is exhausted.
inline bool advance(std::vector<std::size_t>& idx,
                    const std::vector<std::vector<double>>& axes) {
  std::size_t carry = 0;
  while (carry < idx.size()) {
    if (++idx[carry] < axes[carry].size()) return true;
    idx[carry] = 0;
    ++carry;
  }
  return false;
}

}  // namespace edb::opt::internal
