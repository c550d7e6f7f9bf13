// Byte-exact fingerprint of bargaining outcomes, shared by the tests that
// pin a whole catalog x protocol x requirement table to the output of an
// earlier tree (game_p3_certificate_test, game_phase1_certificate_test).
//
// Each outcome renders as one line: hex-float operating points and Nash
// product for a solved cell, error code and message for a failed one.
// The lines fold into an order-sensitive FNV-1a hash, so a pinned value
// changes iff some cell's answer changes by a single bit.
#pragma once

#include <cstdint>
#include <string>

#include "core/game_framework.h"
#include "util/error.h"
#include "util/fingerprint.h"

namespace edb {

inline constexpr std::uint64_t kOutcomeFingerprintSeed =
    0xcbf29ce484222325ULL;

inline void fingerprint_put_point(std::string& s, const char* tag,
                                  const core::OperatingPoint& p) {
  for (double x : p.x) fingerprint_put(s, tag, x);
  fingerprint_put(s, "E", p.energy);
  fingerprint_put(s, "L", p.latency);
}

// Folds one outcome's line into `h` (start from kOutcomeFingerprintSeed).
inline std::uint64_t fold_outcome(std::uint64_t h,
                                  const Expected<core::BargainingOutcome>& o) {
  std::string s;
  if (o.ok()) {
    fingerprint_put_point(s, "p1", o->p1);
    fingerprint_put_point(s, "p2", o->p2);
    fingerprint_put_point(s, "nbs", o->nbs);
    fingerprint_put(s, "nash", o->nash_product);
  } else {
    fingerprint_put_u64(s, "code", static_cast<std::uint64_t>(o.error().code));
    s += o.error().to_string();
  }
  s += "\n";
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace edb
