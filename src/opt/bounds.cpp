#include "opt/bounds.h"

#include <utility>

#include "util/math.h"

namespace edb::opt {

Box::Box(std::vector<double> lo, std::vector<double> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  EDB_ASSERT(lo_.size() == hi_.size(), "box bound dimension mismatch");
  EDB_ASSERT(!lo_.empty(), "box must have at least one dimension");
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    EDB_ASSERT(lo_[i] < hi_[i], "box bounds must satisfy lo < hi");
  }
}

std::vector<double> Box::midpoint() const {
  std::vector<double> out(dim());
  for (std::size_t i = 0; i < dim(); ++i) out[i] = 0.5 * (lo_[i] + hi_[i]);
  return out;
}

std::vector<double> Box::clamp(std::vector<double> x) const {
  EDB_ASSERT(x.size() == dim(), "clamp dimension mismatch");
  for (std::size_t i = 0; i < dim(); ++i) {
    x[i] = edb::clamp(x[i], lo_[i], hi_[i]);
  }
  return x;
}

bool Box::contains(const std::vector<double>& x, double tol) const {
  if (x.size() != dim()) return false;
  for (std::size_t i = 0; i < dim(); ++i) {
    if (x[i] < lo_[i] - tol || x[i] > hi_[i] + tol) return false;
  }
  return true;
}

std::vector<double> Box::sample(Rng& rng) const {
  std::vector<double> out(dim());
  for (std::size_t i = 0; i < dim(); ++i) out[i] = rng.uniform(lo_[i], hi_[i]);
  return out;
}

}  // namespace edb::opt
