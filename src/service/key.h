// Canonical query keys for the tuning service.
//
// The cache (service/cache.h) can only pay off if two queries that mean
// the same thing produce the same key.  Canonicalization rules
// (DESIGN.md §4):
//
//   - every double is quantized to 10 significant digits ("%.9e"), so
//     float noise from parsing or arithmetic (~1e-12 relative) collides
//     while any value-affecting difference (the paper's grids step by
//     whole percents) survives;
//   - protocol names resolve through the registry's spelling rules
//     ("xmac" == "X-MAC") and protocol *sets* are sorted and deduped, so
//     order and spelling cannot split the cache;
//   - only value-affecting fields participate, in the scenario walk's
//     order (core::for_each_field): the radio preset's display name does
//     not (two radios with identical constants are the same
//     deployment), its power/timing constants do.
//
// A QueryKey carries the full canonical field=value string plus a 64-bit
// FNV-1a hash of it.  The hash spreads keys across cache shards and hash
// tables; the string discriminates exact equality, so a 64-bit collision
// can never alias two different queries to one cached result.
//
// Guarantees: canonicalization is total and deterministic — the same
// scenario/options/protocol inputs produce the same key on every
// platform, run and thread (FNV-1a and "%.9e" quantization are exact
// integer/decimal procedures with no libm dependence).  Numbers are
// written by std::to_chars, which ignores the locale, so keys may be
// logged, persisted and compared across processes whatever their
// LC_NUMERIC.  Two keys are equal iff their canonical strings are
// equal; the hash is derived and never relied on alone.
//
// Thread-safety: every function here is a pure function of its
// arguments — no shared or global state — and safe to call concurrently
// from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.h"
#include "util/error.h"
#include "util/fingerprint.h"

namespace edb::service {

// Value-affecting solve options.  alpha is the energy player's bargaining
// power (core/game_framework.h solve_weighted); 0.5 is the paper's
// symmetric solve.
struct QueryOptions {
  double alpha = 0.5;
  // Per-query oracle-eval budget (core::SolveControl semantics); 0 =
  // unlimited.  Deliberately NOT part of the canonical key: the budget
  // shapes how hard a miss may work, not which question is being asked —
  // a budget-bound query may be served from an unbudgeted query's cached
  // answer (and the golden key pins must not move).
  long long eval_budget = 0;
};

struct QueryKey {
  std::uint64_t hash = 0;
  std::string canonical;

  bool operator==(const QueryKey& o) const {
    return hash == o.hash && canonical == o.canonical;
  }
  bool operator!=(const QueryKey& o) const { return !(*this == o); }
};

// Hash tables keyed on QueryKey (the cache's shard index, the miss
// pipeline's coalescing map) reuse the carried hash instead of hashing
// the canonical string again; equality still compares the canonical.
struct QueryKeyHash {
  std::size_t operator()(const QueryKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash);
  }
};

// FNV-1a over the canonical form (util/fingerprint.h) — stable across
// platforms and runs (keys may be logged or persisted).
using edb::fnv1a64;

// The quantization rule, exposed for tests: "%.9e" with -0 normalised.
std::string quantize_token(double v);

// Resolves each name through the registry's spelling rules to its
// registered display name, sorts and dedupes.  Empty input means the
// paper's three protocols.  kNotFound on an unknown protocol.
Expected<std::vector<std::string>> canonical_protocol_set(
    const std::vector<std::string>& protocols);

// The part every key of one query shares — deployment, requirements and
// options — walked once, with the FNV-1a state of its bytes.  A query's
// keys append their suffix to it and continue the hash, so serving a
// query walks its scenario once however many protocols it asks about.
class KeyPrefix {
 public:
  KeyPrefix(const core::Scenario& scenario, const QueryOptions& opts);
  QueryKey protocol_key(std::string_view protocol) const;
  QueryKey query_key(const std::vector<std::string>& canonical_protocols) const;

 private:
  // The prefix, then "name=v0,v1,...;".
  template <typename Values>
  QueryKey extend(std::string_view name, const Values& values) const;

  QueryKey prefix_;
};

// Key over the deployment only (radio, packet, ring, rates) — what a MAC
// model is built from.
QueryKey context_key(const mac::ModelContext& ctx);

// Key of one protocol's cache entry: deployment + requirements + options
// + protocol.  `protocol` must already be a registered display name.
// This and query_key are KeyPrefix(scenario, opts)'s keys.
QueryKey protocol_key(const core::Scenario& scenario,
                      std::string_view protocol, const QueryOptions& opts);

// Key of a whole query: deployment + requirements + options + the
// canonical protocol set.
QueryKey query_key(const core::Scenario& scenario,
                   const std::vector<std::string>& canonical_protocols,
                   const QueryOptions& opts);

}  // namespace edb::service
