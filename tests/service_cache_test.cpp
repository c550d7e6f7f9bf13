#include "service/cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"

namespace edb::service {
namespace {

QueryKey key_of(const std::string& canonical) {
  QueryKey k;
  k.canonical = canonical;
  k.hash = fnv1a64(canonical);
  return k;
}

ProtocolOutcome feasible_outcome(const std::string& protocol, double energy) {
  ProtocolOutcome po;
  po.protocol = protocol;
  core::BargainingOutcome o;
  o.nbs.energy = energy;
  o.nbs.latency = 1.0;
  po.outcome = o;
  return po;
}

TEST(ShardedCacheTest, PutGetRoundTrip) {
  ShardedResultCache cache(8, 2);
  const auto k = key_of("q1");
  EXPECT_FALSE(cache.get(k).has_value());
  cache.put(k, feasible_outcome("X-MAC", 0.01));
  auto hit = cache.get(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->protocol, "X-MAC");
  EXPECT_EQ(hit->outcome->nbs.energy, 0.01);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.shards, 2u);
}

TEST(ShardedCacheTest, InfeasibleOutcomesAreCachedToo) {
  ShardedResultCache cache(4, 1);
  ProtocolOutcome po;
  po.protocol = "LMAC";
  po.infeasible_reason = "infeasible: LMAC (P1): no parameter setting meets Lmax";
  cache.put(key_of("dead"), po);
  auto hit = cache.get(key_of("dead"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->feasible());
  EXPECT_EQ(hit->infeasible_reason, po.infeasible_reason);
}

TEST(ShardedCacheTest, LruEvictionOrder) {
  // One shard, two slots: touching A must sacrifice B, not A.
  ShardedResultCache cache(2, 1);
  cache.put(key_of("A"), feasible_outcome("X-MAC", 1));
  cache.put(key_of("B"), feasible_outcome("X-MAC", 2));
  EXPECT_TRUE(cache.get(key_of("A")).has_value());  // A most recent
  cache.put(key_of("C"), feasible_outcome("X-MAC", 3));

  EXPECT_TRUE(cache.get(key_of("A")).has_value());
  EXPECT_FALSE(cache.get(key_of("B")).has_value());
  EXPECT_TRUE(cache.get(key_of("C")).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

// The shard index finds entries by the carried hash; a 64-bit collision
// must still keep two different questions apart by their canonicals.
TEST(ShardedCacheTest, EqualHashDifferentCanonicalStayApart) {
  ShardedResultCache cache(4, 1);
  QueryKey a{0x1234, "opts.alpha=5.000000000e-01;protocol=X-MAC;"};
  QueryKey b{0x1234, "opts.alpha=5.000000000e-01;protocol=DMAC;"};
  cache.put(a, feasible_outcome("X-MAC", 1));
  EXPECT_FALSE(cache.get(b).has_value());
  cache.put(b, feasible_outcome("DMAC", 2));
  cache.put(b, feasible_outcome("DMAC", 3));  // refresh b, not a
  EXPECT_EQ(cache.stats().entries, 2u);

  auto got_a = cache.get(a);
  auto got_b = cache.get(b);
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(got_a->protocol, "X-MAC");
  EXPECT_EQ(got_a->outcome->nbs.energy, 1.0);
  EXPECT_EQ(got_b->protocol, "DMAC");
  EXPECT_EQ(got_b->outcome->nbs.energy, 3.0);
}

TEST(ShardedCacheTest, PutRefreshesExistingEntry) {
  ShardedResultCache cache(2, 1);
  cache.put(key_of("A"), feasible_outcome("X-MAC", 1));
  cache.put(key_of("B"), feasible_outcome("X-MAC", 2));
  cache.put(key_of("A"), feasible_outcome("X-MAC", 10));  // refresh, no grow
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get(key_of("A"))->outcome->nbs.energy, 10.0);
  cache.put(key_of("C"), feasible_outcome("X-MAC", 3));
  EXPECT_FALSE(cache.get(key_of("B")).has_value());  // B was the LRU
}

TEST(ShardedCacheTest, ZeroCapacityDisables) {
  ShardedResultCache cache(0, 4);
  cache.put(key_of("A"), feasible_outcome("X-MAC", 1));
  EXPECT_FALSE(cache.get(key_of("A")).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);  // disabled, not missing
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ShardedCacheTest, CapacitySpreadsAcrossShards) {
  // 10 across 4 shards: 3+3+2+2.
  ShardedResultCache cache(10, 4);
  for (int i = 0; i < 100; ++i) {
    cache.put(key_of("k" + std::to_string(i)), feasible_outcome("X-MAC", i));
  }
  EXPECT_LE(cache.size(), 10u);
  EXPECT_GE(cache.size(), 4u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ShardedCacheTest, CapacityBelowShardCountIsStillTheTotalBudget) {
  // Real protocol keys over an Lmax ladder spread across every shard
  // (short synthetic keys cluster in a few under the high hash bits), so
  // a per-shard floor of one entry would hold up to 16 here.
  ShardedResultCache cache(3, 16);
  const core::Scenario base = core::Scenario::paper_default();
  for (int i = 0; i < 200; ++i) {
    core::Scenario s = base;
    s.requirements.l_max = base.requirements.l_max * (0.5 + 0.01 * i);
    cache.put(protocol_key(s, "X-MAC", {}), feasible_outcome("X-MAC", i));
  }
  EXPECT_LE(cache.size(), 3u);
  EXPECT_EQ(cache.stats().shards, 3u);
  EXPECT_EQ(cache.stats().capacity, 3u);
}

TEST(ShardedCacheTest, ClearEmptiesEveryShard) {
  ShardedResultCache cache(16, 4);
  for (int i = 0; i < 12; ++i) {
    cache.put(key_of("k" + std::to_string(i)), feasible_outcome("X-MAC", i));
  }
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(key_of("k3")).has_value());
}

TEST(ShardedCacheTest, NegativeHitsCountInfeasibleServes) {
  ShardedResultCache cache(8, 2);
  ProtocolOutcome dead;
  dead.protocol = "LMAC";
  dead.infeasible_reason = "infeasible";
  cache.put(key_of("dead"), dead);
  cache.put(key_of("alive"), feasible_outcome("X-MAC", 1.0));

  EXPECT_TRUE(cache.get(key_of("dead")).has_value());
  EXPECT_TRUE(cache.get(key_of("dead")).has_value());
  EXPECT_TRUE(cache.get(key_of("alive")).has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);  // negative hits are hits too
  EXPECT_EQ(stats.negative_hits, 2u);
}

TEST(ShardedCacheTest, StatsAreDeltasSinceConstruction) {
  // The counters live on the process-wide registry; a fresh instance
  // must start its stats() at zero even though earlier caches (and
  // earlier tests) already pushed the shared totals up.
  {
    ShardedResultCache warmup(8, 2);
    warmup.put(key_of("w"), feasible_outcome("X-MAC", 1));
    warmup.get(key_of("w"));
    warmup.get(key_of("nope"));
    EXPECT_EQ(warmup.stats().hits, 1u);
    EXPECT_EQ(warmup.stats().misses, 1u);
  }
  ShardedResultCache fresh(8, 2);
  EXPECT_EQ(fresh.stats().hits, 0u);
  EXPECT_EQ(fresh.stats().misses, 0u);
  EXPECT_EQ(fresh.stats().evictions, 0u);
  EXPECT_EQ(fresh.stats().negative_hits, 0u);
}

TEST(ShardedCacheTest, ConcurrentHammer) {
  ShardedResultCache cache(64, 8);
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const auto k = key_of("k" + std::to_string((t * 7 + i) % 100));
        if (i % 3 == 0) {
          cache.put(k, feasible_outcome("X-MAC", i));
        } else {
          cache.get(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = cache.stats();
  // Every get either hit or missed; nothing was lost or double-counted.
  const std::size_t gets_per_thread = kOps - (kOps + 2) / 3;  // i % 3 != 0
  EXPECT_EQ(stats.hits + stats.misses, kThreads * gets_per_thread);
  EXPECT_LE(cache.size(), 64u);
}

}  // namespace
}  // namespace edb::service
