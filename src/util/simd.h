// Portable fixed-width SIMD lanes for the batch kernels.
//
// `DoubleLanes` is a thin wrapper over one hardware vector of doubles —
// AVX2 (4 lanes), NEON (2 lanes) or a plain array fallback (4 lanes) —
// selected at compile time from the target flags:
//
//   __AVX2__                 -> 256-bit AVX2 lanes
//   __aarch64__ + __ARM_NEON -> 128-bit NEON lanes
//   otherwise                -> scalar-array fallback
//   EDB_SIMD_FORCE_SCALAR    -> scalar-array fallback regardless of target
//
// `OneLane` is the same interface over one plain double.  A kernel is
// written once, as a generic body over the lane type, and `for_lanes`
// runs it on DoubleLanes over the full blocks of a point block and on
// OneLane over the remainder — there is no hand-copied scalar tail.
//
// Lane contract (DESIGN.md §2): every operation is the IEEE-754 scalar
// operation applied lane-wise — lane i of `a op b` carries exactly the
// double `a.lane(i) op b.lane(i)` would produce.  Two rules keep kernels
// written on these types bit-identical to the models' scalar entry
// points:
//
//   1. No FMA.  The wrappers never emit fused multiply-add (there is no
//      fma entry point), and the build compiles with -ffp-contract=off so
//      the compiler cannot contract the scalar reference expressions
//      either (aarch64 would otherwise fuse them by default).
//   2. Association is the kernel's job.  The wrappers provide binary ops
//      only; a kernel must chain them in the scalar expression's exact
//      association order ((a*b)+c, not a*(b+c)).
//
// tests/util_simd_test.cpp asserts rule 1 and the lane-wise semantics in
// hex-float for both types; tests/mac_batch_parity_test.cpp asserts the
// end-to-end consequence (batch kernels bit-identical to the scalar
// entry points).
#pragma once

#include <algorithm>
#include <cstddef>

#if !defined(EDB_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#define EDB_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(EDB_SIMD_FORCE_SCALAR) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define EDB_SIMD_NEON 1
#include <arm_neon.h>
#else
#define EDB_SIMD_SCALAR 1
#endif

namespace edb::util {

#if defined(EDB_SIMD_AVX2)

struct DoubleLanes {
  static constexpr std::size_t kWidth = 4;
  __m256d v;

  static DoubleLanes load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static DoubleLanes broadcast(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  double lane(std::size_t i) const {
    alignas(32) double tmp[kWidth];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }

  friend DoubleLanes operator+(DoubleLanes a, DoubleLanes b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend DoubleLanes operator-(DoubleLanes a, DoubleLanes b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend DoubleLanes operator*(DoubleLanes a, DoubleLanes b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend DoubleLanes operator/(DoubleLanes a, DoubleLanes b) {
    return {_mm256_div_pd(a.v, b.v)};
  }
};

// Lane-wise min/max with the operands ordered so the hardware select
// (vminpd(x, y) = x < y ? x : y, vmaxpd(x, y) = x > y ? x : y) reduces
// to the scalar std::min/std::max selects exactly, ties (and signed
// zeros) included: min(a, b) = (b < a) ? b : a, max(a, b) =
// (a < b) ? b : a.
inline DoubleLanes min(DoubleLanes a, DoubleLanes b) {
  return {_mm256_min_pd(b.v, a.v)};
}
inline DoubleLanes max(DoubleLanes a, DoubleLanes b) {
  return {_mm256_max_pd(b.v, a.v)};
}

inline const char* simd_backend() { return "avx2"; }

#elif defined(EDB_SIMD_NEON)

struct DoubleLanes {
  static constexpr std::size_t kWidth = 2;
  float64x2_t v;

  static DoubleLanes load(const double* p) { return {vld1q_f64(p)}; }
  static DoubleLanes broadcast(double x) { return {vdupq_n_f64(x)}; }
  void store(double* p) const { vst1q_f64(p, v); }
  double lane(std::size_t i) const {
    return i == 0 ? vgetq_lane_f64(v, 0) : vgetq_lane_f64(v, 1);
  }

  friend DoubleLanes operator+(DoubleLanes a, DoubleLanes b) {
    return {vaddq_f64(a.v, b.v)};
  }
  friend DoubleLanes operator-(DoubleLanes a, DoubleLanes b) {
    return {vsubq_f64(a.v, b.v)};
  }
  friend DoubleLanes operator*(DoubleLanes a, DoubleLanes b) {
    return {vmulq_f64(a.v, b.v)};
  }
  friend DoubleLanes operator/(DoubleLanes a, DoubleLanes b) {
    return {vdivq_f64(a.v, b.v)};
  }
};

// Compare-select forms so ties (and signed zeros) resolve exactly like
// the scalar `(b < a) ? b : a` / `(a < b) ? b : a` selects — NEON's
// FMIN/FMAX order ±0 differently from std::min/std::max.
inline DoubleLanes min(DoubleLanes a, DoubleLanes b) {
  return {vbslq_f64(vcltq_f64(b.v, a.v), b.v, a.v)};
}
inline DoubleLanes max(DoubleLanes a, DoubleLanes b) {
  return {vbslq_f64(vcltq_f64(a.v, b.v), b.v, a.v)};
}

inline const char* simd_backend() { return "neon"; }

#else  // scalar-array fallback

struct DoubleLanes {
  static constexpr std::size_t kWidth = 4;
  double v[kWidth];

  static DoubleLanes load(const double* p) {
    DoubleLanes r;
    for (std::size_t i = 0; i < kWidth; ++i) r.v[i] = p[i];
    return r;
  }
  static DoubleLanes broadcast(double x) {
    DoubleLanes r;
    for (std::size_t i = 0; i < kWidth; ++i) r.v[i] = x;
    return r;
  }
  void store(double* p) const {
    for (std::size_t i = 0; i < kWidth; ++i) p[i] = v[i];
  }
  double lane(std::size_t i) const { return v[i]; }

  friend DoubleLanes operator+(DoubleLanes a, DoubleLanes b) {
    DoubleLanes r;
    for (std::size_t i = 0; i < kWidth; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend DoubleLanes operator-(DoubleLanes a, DoubleLanes b) {
    DoubleLanes r;
    for (std::size_t i = 0; i < kWidth; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend DoubleLanes operator*(DoubleLanes a, DoubleLanes b) {
    DoubleLanes r;
    for (std::size_t i = 0; i < kWidth; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  friend DoubleLanes operator/(DoubleLanes a, DoubleLanes b) {
    DoubleLanes r;
    for (std::size_t i = 0; i < kWidth; ++i) r.v[i] = a.v[i] / b.v[i];
    return r;
  }
};

inline DoubleLanes min(DoubleLanes a, DoubleLanes b) {
  DoubleLanes r;
  for (std::size_t i = 0; i < DoubleLanes::kWidth; ++i) {
    r.v[i] = b.v[i] < a.v[i] ? b.v[i] : a.v[i];
  }
  return r;
}
inline DoubleLanes max(DoubleLanes a, DoubleLanes b) {
  DoubleLanes r;
  for (std::size_t i = 0; i < DoubleLanes::kWidth; ++i) {
    r.v[i] = a.v[i] < b.v[i] ? b.v[i] : a.v[i];
  }
  return r;
}

inline const char* simd_backend() { return "scalar"; }

#endif

// Width-1 lanes: DoubleLanes' interface over one double, min/max being
// the std::min/std::max selects themselves.
struct OneLane {
  static constexpr std::size_t kWidth = 1;
  double v;

  static OneLane load(const double* p) { return {*p}; }
  static OneLane broadcast(double x) { return {x}; }
  void store(double* p) const { *p = v; }
  double lane(std::size_t) const { return v; }

  friend OneLane operator+(OneLane a, OneLane b) { return {a.v + b.v}; }
  friend OneLane operator-(OneLane a, OneLane b) { return {a.v - b.v}; }
  friend OneLane operator*(OneLane a, OneLane b) { return {a.v * b.v}; }
  friend OneLane operator/(OneLane a, OneLane b) { return {a.v / b.v}; }
};

inline OneLane min(OneLane a, OneLane b) { return {std::min(a.v, b.v)}; }
inline OneLane max(OneLane a, OneLane b) { return {std::max(a.v, b.v)}; }

// Runs body(DoubleLanes{}, i) for every full lane block [i, i + kWidth)
// of [0, n), then body(OneLane{}, i) for each remaining index.  The body
// is a generic lambda that takes its lane type from the first argument
// (`using L = decltype(lanes);`) and loads/stores at offset i.
template <class Body>
inline void for_lanes(std::size_t n, Body&& body) {
  std::size_t i = 0;
  for (; i + DoubleLanes::kWidth <= n; i += DoubleLanes::kWidth) {
    body(DoubleLanes{}, i);
  }
  for (; i < n; ++i) body(OneLane{}, i);
}

}  // namespace edb::util
