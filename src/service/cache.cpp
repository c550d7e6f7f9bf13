#include "service/cache.h"

#include <algorithm>

namespace edb::service {

ShardedResultCache::ShardedResultCache(std::size_t capacity,
                                       std::size_t shards)
    : shards_(capacity > 0 ? std::clamp<std::size_t>(shards, 1, capacity)
                           : std::max<std::size_t>(1, shards)),
      capacity_(capacity),
      hits_(obs::Registry::global().counter("service.cache.hits")),
      misses_(obs::Registry::global().counter("service.cache.misses")),
      evictions_(obs::Registry::global().counter("service.cache.evictions")),
      negative_hits_(
          obs::Registry::global().counter("service.cache.negative_hits")),
      base_hits_(hits_.value()),
      base_misses_(misses_.value()),
      base_evictions_(evictions_.value()),
      base_negative_hits_(negative_hits_.value()) {
  // Spread the budget; the remainder goes to the first shards so the
  // total matches `capacity` exactly.  There are never more shards than
  // entries, so every shard of an enabled cache holds at least one.
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < n; ++i) {
    shards_[i].capacity = capacity / n + (i < capacity % n ? 1 : 0);
  }
}

ShardedResultCache::Shard& ShardedResultCache::shard_of(const QueryKey& key) {
  // The low bits feed the per-shard hash map (QueryKeyHash); use the high
  // bits here so the two partitions are independent.
  return shards_[(key.hash >> 32) % shards_.size()];
}

std::optional<ProtocolOutcome> ShardedResultCache::get(const QueryKey& key) {
  if (capacity_ == 0) return std::nullopt;
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    misses_.add(1);
    return std::nullopt;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second.lru);
  hits_.add(1);
  if (!it->second.value.feasible()) negative_hits_.add(1);
  return it->second.value;
}

void ShardedResultCache::put(const QueryKey& key, ProtocolOutcome value) {
  if (capacity_ == 0) return;
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto [it, fresh] = s.index.try_emplace(key);
  it->second.value = std::move(value);
  if (!fresh) {
    s.lru.splice(s.lru.begin(), s.lru, it->second.lru);
    return;
  }
  s.lru.push_front(&it->first);
  it->second.lru = s.lru.begin();
  while (s.lru.size() > s.capacity) {
    s.index.erase(s.index.find(*s.lru.back()));
    s.lru.pop_back();
    evictions_.add(1);
  }
}

CacheStats ShardedResultCache::stats() const {
  CacheStats out;
  out.capacity = capacity_;
  out.shards = shards_.size();
  // Deltas since construction, clamped: another instance recording
  // concurrently can only inflate the shared totals, never push a delta
  // negative, so the clamp is pure belt-and-braces against reordered
  // racing reads.
  auto delta = [](const obs::Counter& c, std::uint64_t base) {
    const std::uint64_t v = c.value();
    return static_cast<std::size_t>(v > base ? v - base : 0);
  };
  out.hits = delta(hits_, base_hits_);
  out.misses = delta(misses_, base_misses_);
  out.evictions = delta(evictions_, base_evictions_);
  out.negative_hits = delta(negative_hits_, base_negative_hits_);
  out.entries = size();
  return out;
}

std::size_t ShardedResultCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    n += s.lru.size();
  }
  return n;
}

void ShardedResultCache::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.lru.clear();
    s.index.clear();
  }
}

}  // namespace edb::service
