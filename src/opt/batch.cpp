#include "opt/batch.h"

#include <chrono>
#include <memory>
#include <vector>

#include "obs/trace.h"

namespace edb::opt {

void call_oracle(const BatchObjective& f, const PointBlock& b, double* values,
                 VectorResult& cost) {
  if (obs::Tracer::enabled()) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    f(b, values);
    cost.oracle_ns +=
        std::chrono::duration<double, std::nano>(clock::now() - t0).count();
  } else {
    f(b, values);
  }
  cost.evaluations += static_cast<int>(b.n);
  ++cost.blocks;
}

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
