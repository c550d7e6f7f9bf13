// Axis-aligned box constraints for the solvers.
#pragma once

#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace edb::opt {

class Box {
 public:
  Box() = default;
  Box(std::vector<double> lo, std::vector<double> hi);

  std::size_t dim() const { return lo_.size(); }
  double lo(std::size_t i) const { return lo_[i]; }
  double hi(std::size_t i) const { return hi_[i]; }
  const std::vector<double>& lower() const { return lo_; }
  const std::vector<double>& upper() const { return hi_; }
  double width(std::size_t i) const { return hi_[i] - lo_[i]; }

  std::vector<double> midpoint() const;
  std::vector<double> clamp(std::vector<double> x) const;
  bool contains(const std::vector<double>& x, double tol = 1e-12) const;
  // Uniform sample inside the box.
  std::vector<double> sample(Rng& rng) const;

 private:
  std::vector<double> lo_, hi_;
};

}  // namespace edb::opt
