// Sharded LRU cache of per-protocol tuning results.
//
// Keys are canonical QueryKeys (service/key.h); the 64-bit hash picks one
// of N shards, each shard is an independent hash map + LRU list under its
// own mutex, so concurrent readers on different shards never contend.
// Each entry holds its QueryKey once, in the shard's map, which finds it
// by the key's carried hash (QueryKeyHash) and tells equal-hash keys
// apart by their canonical strings.
// Deterministically infeasible outcomes are cached too ("negative
// caching"): proving infeasibility costs a full solve, and a scenario
// that cannot be served stays that way until the inputs change.  The
// serving pipeline only installs outcomes whose infeasible_code is
// deterministic (!is_transient) — one flaky or deadline-bound solve must
// not poison the key (DESIGN.md §10).
//
// Value preservation is by construction: the cache stores exactly what the
// engine computed, keyed so that only canonically identical queries can
// hit, so a served result is bit-identical to a fresh solve of the same
// canonical inputs (the acceptance property of ServiceCore::serve,
// service/core.h).
//
// Thread-safety: get(), put(), stats(), size() and clear() are safe to
// call concurrently from any thread — each shard locks independently, so
// readers of different shards never contend.  Construction and
// destruction must not race any other call.
//
// Counters live on the metrics registry (obs/metrics.h) under
// "service.cache.hits" / ".misses" / ".evictions" / ".negative_hits" —
// the same numbers a registry snapshot exports.  The registry counters
// are process-wide totals across every cache instance; stats() reports
// this instance's contribution as the delta since its construction
// (exact whenever one cache instance is recording at a time, which every
// test and the service hold; a snapshot, not a fence: a racing put may
// or may not be counted).  A negative hit is a hit whose cached outcome
// is infeasible — negative caching paying off — and is counted on top of
// the plain hit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/game_framework.h"
#include "obs/metrics.h"
#include "service/key.h"

namespace edb::service {

// One protocol's answer at one scenario: the engine's sweep-cell payload
// minus the swept value (ServiceCore::serve, service/core.h, assembles
// these into TuningResults).
struct ProtocolOutcome {
  std::string protocol;  // registered display name
  std::optional<core::BargainingOutcome> outcome;
  std::string infeasible_reason;  // set when !outcome
  // Machine-readable counterpart of infeasible_reason.  Gates negative
  // caching: only deterministic codes (!is_transient) may be installed —
  // a transient failure cached as "infeasible" would poison the key until
  // eviction (service/core.cpp, DESIGN.md §10).
  ErrorCode infeasible_code = ErrorCode::kInfeasible;

  bool feasible() const { return outcome.has_value(); }
};

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t negative_hits = 0;  // hits whose cached outcome is infeasible
  std::size_t entries = 0;
  std::size_t capacity = 0;
  std::size_t shards = 0;  // effective count: min(requested, capacity)

  double hit_rate() const {
    const std::size_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

class ShardedResultCache {
 public:
  // `capacity` is the total entry budget, spread evenly across
  // min(shards, capacity) shards, so no shard is empty and the cache never
  // holds more than `capacity` entries.  capacity == 0 disables the cache
  // entirely: every get misses, every put is dropped — the bench's
  // "no-cache path".
  explicit ShardedResultCache(std::size_t capacity, std::size_t shards = 16);

  ShardedResultCache(const ShardedResultCache&) = delete;
  ShardedResultCache& operator=(const ShardedResultCache&) = delete;

  // Copies the entry out and marks it most recently used.
  std::optional<ProtocolOutcome> get(const QueryKey& key);
  // Inserts or refreshes; evicts the shard's least recently used entries
  // over capacity.
  void put(const QueryKey& key, ProtocolOutcome value);

  CacheStats stats() const;
  std::size_t size() const;
  void clear();

 private:
  struct Entry {
    ProtocolOutcome value;
    std::list<const QueryKey*>::iterator lru;  // this entry's LRU node
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<QueryKey, Entry, QueryKeyHash> index;
    // Keys of `index`'s entries; front = most recently used.
    std::list<const QueryKey*> lru;
    std::size_t capacity = 0;
  };

  Shard& shard_of(const QueryKey& key);

  std::vector<Shard> shards_;
  std::size_t capacity_ = 0;

  // Registry-owned counters (shared across instances) and this
  // instance's construction-time baselines for the stats() deltas.
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& negative_hits_;
  std::uint64_t base_hits_ = 0;
  std::uint64_t base_misses_ = 0;
  std::uint64_t base_evictions_ = 0;
  std::uint64_t base_negative_hits_ = 0;
};

}  // namespace edb::service
