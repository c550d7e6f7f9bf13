// Byte-exact fingerprint field serializers, and the one string hash.
//
// Two determinism contracts in this codebase are asserted by comparing
// serialized fingerprints byte for byte: catalog scenario expansion
// (catalog/family.h) and simulation campaign metrics (sim/campaign.h).
// Both must render fields identically forever, so they share these
// encoders — hex floats are the load-bearing choice: two doubles render
// identically iff they are the same bits, which is exactly the identity
// the contracts promise.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace edb {

// 64-bit FNV-1a: the hash of cache keys (service/key.h), fault sites
// (util/fault.h) and catalog stream seeds (catalog/family.h).  Keys and
// seeds are logged and persisted, so the constants never change.
inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline void fingerprint_put(std::string& out, const char* name, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s=%a;", name, v);
  out += buf;
}

inline void fingerprint_put_u64(std::string& out, const char* name,
                                std::uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s=%" PRIu64 ";", name, v);
  out += buf;
}

}  // namespace edb
