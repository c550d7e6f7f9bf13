#include "opt/batch.h"

#include <memory>
#include <vector>

namespace edb::opt {

BatchObjective batch_from_scalar(Objective f) {
  // The scratch vector lives in a shared_ptr so the adapter stays copyable
  // (std::function requires it); copies share the scratch, which is safe
  // because a batch oracle is only ever driven from one thread at a time.
  auto scratch = std::make_shared<std::vector<double>>();
  return [f = std::move(f), scratch](const PointBlock& b, double* values) {
    scratch->resize(b.dim);
    for (std::size_t i = 0; i < b.n; ++i) {
      const double* p = b.point(i);
      scratch->assign(p, p + b.dim);
      values[i] = f(*scratch);
    }
  };
}

}  // namespace edb::opt
