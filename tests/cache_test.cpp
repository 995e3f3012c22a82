#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "cachesim/cache.h"
#include "codes/examples.h"
#include "codes/kernels.h"
#include "exact/oracle.h"
#include "layout/spatial.h"
#include "runtime/cache.h"
#include "support/error.h"
#include "transform/minimizer.h"

namespace lmre {
namespace {

TEST(Cache, BasicHitAndMiss) {
  Cache c(CacheConfig{4, 1, 0});
  EXPECT_FALSE(c.access(10));  // cold
  EXPECT_TRUE(c.access(10));   // hit
  EXPECT_FALSE(c.access(11));
  EXPECT_TRUE(c.access(11));
  EXPECT_EQ(c.stats().accesses, 4);
  EXPECT_EQ(c.stats().hits, 2);
  EXPECT_EQ(c.stats().cold_misses, 2);
}

TEST(Cache, LruEviction) {
  Cache c(CacheConfig{2, 1, 0});  // fully associative, 2 lines
  c.access(1);
  c.access(2);
  c.access(3);                 // evicts 1
  EXPECT_FALSE(c.access(1));   // capacity miss
  EXPECT_TRUE(c.access(3));    // still resident
}

TEST(Cache, LineGranularity) {
  Cache c(CacheConfig{8, 4, 0});
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(3));   // same line
  EXPECT_FALSE(c.access(4));  // next line
  EXPECT_TRUE(c.access(7));
}

TEST(Cache, SetMapping) {
  // 4 lines, 2-way: 2 sets; lines 0 and 2 share set 0.
  Cache c(CacheConfig{4, 1, 2});
  EXPECT_EQ(c.sets(), 2);
  EXPECT_EQ(c.ways(), 2);
  c.access(0);
  c.access(1);                // set 1
  c.access(2);
  c.access(4);                // set 0 again: evicts line 0
  EXPECT_FALSE(c.access(0));  // conflict miss in set 0
  EXPECT_TRUE(c.access(1));   // set 1 undisturbed
}

TEST(Cache, NegativeAddressesWork) {
  Cache c(CacheConfig{4, 2, 2});
  EXPECT_FALSE(c.access(-3));
  EXPECT_TRUE(c.access(-4));  // same line floor(-3/2) == floor(-4/2) == -2
}

TEST(Cache, RejectsBadConfig) {
  EXPECT_THROW(Cache(CacheConfig{0, 1, 0}), InvalidArgument);
  EXPECT_THROW(Cache(CacheConfig{4, 0, 0}), InvalidArgument);
}

// ---- ResultCache disk-header hardening (runtime/cache.h) -------------------

// Writes a raw cache file for `key` under `dir` with exactly the given
// bytes, bypassing ResultCache::put.
void write_cache_file(const std::string& dir, std::uint64_t key,
                      const std::string& bytes) {
  std::filesystem::create_directories(dir);
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.lmre",
                static_cast<unsigned long long>(key));
  std::ofstream out(dir + "/" + name, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(ResultCacheDisk, WellFormedHeaderRoundTrips) {
  const std::string dir = ::testing::TempDir() + "lmre_cache_header_ok";
  std::filesystem::remove_all(dir);
  write_cache_file(dir, 1, "lmre-cache v1 status=3\n{\"x\":1}");
  ResultCache c(4, dir);
  auto entry = c.get(1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->status, 3);
  EXPECT_EQ(entry->payload, "{\"x\":1}");
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheDisk, RejectsCorruptHeadersAsMisses) {
  const std::string dir = ::testing::TempDir() + "lmre_cache_header_bad";
  std::filesystem::remove_all(dir);
  // Each deviation from "lmre-cache v1 status=<int>" must read as a miss:
  // a permissive sscanf once accepted the trailing-garbage forms.
  const std::string bad[] = {
      "lmre-cache v1 status=0 trailing\n{}",   // bytes after the status
      "lmre-cache v1 status=0x10\n{}",         // non-decimal suffix
      "lmre-cache v1 status=\n{}",             // empty status
      "lmre-cache v1 status=abc\n{}",          // non-numeric status
      "lmre-cache v1 status=-2\n{}",           // negative status
      "lmre-cache v2 status=0\n{}",            // wrong version
      "lmre-cache v1\n{}",                     // missing field
      "LMRE-CACHE v1 status=0\n{}",            // wrong case
      "",                                      // empty file
  };
  std::uint64_t key = 10;
  for (const std::string& bytes : bad) {
    write_cache_file(dir, key, bytes);
    ResultCache c(4, dir);
    EXPECT_FALSE(c.get(key).has_value()) << "accepted: " << bytes;
    EXPECT_EQ(c.misses(), 1) << bytes;
    ++key;
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheDisk, PutProducesStrictlyParseableFiles) {
  // The writer and the hardened reader must agree on the format.
  const std::string dir = ::testing::TempDir() + "lmre_cache_header_rt";
  std::filesystem::remove_all(dir);
  {
    ResultCache writer(4, dir);
    writer.put(42, {4, "payload with\nnewlines"});
  }
  ResultCache reader(4, dir);
  auto entry = reader.get(42);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->status, 4);
  EXPECT_EQ(entry->payload, "payload with\nnewlines");
  EXPECT_EQ(reader.disk_hits(), 1);
  std::filesystem::remove_all(dir);
}

// ---- ResultCache residency policy (shards / TTL / byte budget) -------------

std::string payload_of(size_t bytes) { return std::string(bytes, 'p'); }

TEST(ResultCachePolicy, CompatCtorIsSingleShardWithNoExpiry) {
  ResultCache c(8);
  EXPECT_EQ(c.shard_count(), 1u);
  EXPECT_EQ(c.config().capacity, 8u);
  EXPECT_DOUBLE_EQ(c.config().ttl_seconds, 0.0);
  EXPECT_EQ(c.config().byte_budget, 0u);
}

TEST(ResultCachePolicy, ShardCountRoundsUpToPowerOfTwoAndClamps) {
  ResultCacheConfig cfg;
  cfg.shards = 6;
  EXPECT_EQ(ResultCache(cfg).shard_count(), 8u);
  cfg.shards = 0;
  EXPECT_EQ(ResultCache(cfg).shard_count(), 1u);
  cfg.shards = 1000;
  EXPECT_EQ(ResultCache(cfg).shard_count(), 256u);
}

TEST(ResultCachePolicy, ShardsPartitionKeysByLowBits) {
  ResultCacheConfig cfg;
  cfg.capacity = 64;
  cfg.shards = 4;
  ResultCache c(cfg);
  for (std::uint64_t key = 0; key < 64; ++key) {
    c.put(key, {0, payload_of(8)});
  }
  // Sequential keys land round-robin on the 4 shards: 16 entries each, no
  // shard over its 16-entry slice, nothing evicted.
  EXPECT_EQ(c.size(), 64u);
  EXPECT_EQ(c.evictions(), 0);
  EXPECT_EQ(c.shard_entries_max(), 16u);
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_TRUE(c.get(key).has_value()) << "key " << key;
  }
}

TEST(ResultCachePolicy, PerShardCapacityEvictsLruWithinTheShard) {
  ResultCacheConfig cfg;
  cfg.capacity = 4;  // 2 shards x 2 entries
  cfg.shards = 2;
  ResultCache c(cfg);
  // Keys 0,2,4 all hash to shard 0 (low bit clear): the third insert
  // evicts that shard's LRU tail even though the cache as a whole has
  // room elsewhere.
  c.put(0, {0, "a"});
  c.put(2, {0, "b"});
  c.put(4, {0, "c"});
  EXPECT_EQ(c.evictions(), 1);
  EXPECT_FALSE(c.get(0).has_value());  // shard-0 LRU victim
  EXPECT_TRUE(c.get(2).has_value());
  EXPECT_TRUE(c.get(4).has_value());
}

TEST(ResultCachePolicy, ByteBudgetEvictsOldestAndRejectsOversized) {
  ResultCacheConfig cfg;
  cfg.capacity = 100;
  cfg.byte_budget = 100;
  ResultCache c(cfg);
  c.put(1, {0, payload_of(60)});
  EXPECT_EQ(c.bytes(), 60u);
  c.put(2, {0, payload_of(60)});  // 120 > 100: LRU key 1 is evicted
  EXPECT_EQ(c.bytes(), 60u);
  EXPECT_EQ(c.evictions(), 1);
  EXPECT_FALSE(c.get(1).has_value());
  EXPECT_TRUE(c.get(2).has_value());
  // An entry larger than the whole budget is refused outright rather than
  // flushing everything for nothing.
  c.put(3, {0, payload_of(150)});
  EXPECT_EQ(c.admission_rejects(), 1);
  EXPECT_FALSE(c.get(3).has_value());
  EXPECT_TRUE(c.get(2).has_value());  // resident set untouched
}

TEST(ResultCachePolicy, TtlExpiresMemoryAndDiskEntries) {
  const std::string dir = ::testing::TempDir() + "lmre_cache_ttl";
  std::filesystem::remove_all(dir);
  ResultCacheConfig cfg;
  cfg.disk_dir = dir;
  cfg.ttl_seconds = 0.05;
  ResultCache c(cfg);
  c.put(7, {0, "fresh"});
  ASSERT_TRUE(c.get(7).has_value());  // within the TTL
  EXPECT_EQ(c.expired(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Past the TTL both layers refuse: the resident entry is dropped and
  // the disk file (expired by mtime) is removed, so this is a true miss.
  EXPECT_FALSE(c.get(7).has_value());
  EXPECT_GE(c.expired(), 1);
  EXPECT_EQ(c.misses(), 1);
  EXPECT_EQ(c.size(), 0u);
  ResultCache fresh_reader(ResultCacheConfig{4, dir});
  EXPECT_FALSE(fresh_reader.get(7).has_value()) << "expired disk file survived";
  std::filesystem::remove_all(dir);
}

TEST(ResultCachePolicy, ResidentLookupCountsHitsOnlyAndNeverReadsDisk) {
  const std::string dir = ::testing::TempDir() + "lmre_cache_resident";
  std::filesystem::remove_all(dir);
  write_cache_file(dir, 5, "lmre-cache v1 status=0\n{\"x\":5}");
  ResultCache c(4, dir);
  // On disk but not resident: a silent null -- no miss, no disk read,
  // no promotion.
  EXPECT_EQ(c.get_resident(5), nullptr);
  EXPECT_EQ(c.get_resident(6), nullptr);
  EXPECT_EQ(c.misses(), 0);
  EXPECT_EQ(c.hits(), 0);
  EXPECT_EQ(c.disk_hits(), 0);
  EXPECT_EQ(c.size(), 0u);
  // get() is the one that reads disk and promotes; then the key is
  // resident and the memory-only lookup counts a hit.
  ASSERT_TRUE(c.get(5).has_value());
  EXPECT_EQ(c.disk_hits(), 1);
  auto entry = c.get_resident(5);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->payload, "{\"x\":5}");
  EXPECT_EQ(c.hits(), 2);
  EXPECT_EQ(c.disk_hits(), 1);
  EXPECT_EQ(c.misses(), 0);
  std::filesystem::remove_all(dir);
}

TEST(ResultCachePolicy, ResidentLookupHonoursTtl) {
  ResultCacheConfig cfg;
  cfg.ttl_seconds = 0.05;
  ResultCache c(cfg);
  c.put(7, {0, "fresh"});
  ASSERT_NE(c.get_resident(7), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Past the TTL: dropped and counted expired, but not a miss -- the
  // follow-up get() records the one miss without a second expiry.
  EXPECT_EQ(c.get_resident(7), nullptr);
  EXPECT_EQ(c.expired(), 1);
  EXPECT_EQ(c.misses(), 0);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.get(7).has_value());
  EXPECT_EQ(c.expired(), 1);
  EXPECT_EQ(c.misses(), 1);
  EXPECT_EQ(c.hits(), 1);
}

TEST(ResultCachePolicy, RefreshingAKeyReplacesBytesExactly) {
  ResultCacheConfig cfg;
  cfg.capacity = 4;
  cfg.byte_budget = 1000;
  ResultCache c(cfg);
  c.put(9, {0, payload_of(100)});
  c.put(9, {0, payload_of(40)});  // refresh with a smaller payload
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.bytes(), 40u);
  auto entry = c.get(9);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->payload.size(), 40u);
}

TEST(CacheSim, WindowSizedCacheCapturesAllReuse) {
  // Cache >= MWS (+ slack for the element/iteration granularity): every
  // non-cold access hits.
  LoopNest nest = codes::example_8();
  TraceStats t = simulate(nest);
  CacheConfig cfg{t.mws_total + 8, 1, 0};
  CacheStats s = simulate_cache(nest, default_layouts(nest), cfg);
  EXPECT_EQ(s.misses, s.cold_misses);
  EXPECT_EQ(s.cold_misses, t.distinct_total);
}

TEST(CacheSim, TinyCacheThrashes) {
  LoopNest nest = codes::example_8();
  CacheStats s = simulate_cache(nest, default_layouts(nest), CacheConfig{2, 1, 0});
  EXPECT_GT(s.misses, s.cold_misses);  // capacity misses appear
}

TEST(CacheSim, TransformRecoversHitsUnderSmallCache) {
  // With a cache smaller than the original window but larger than the
  // transformed one, the transformation turns capacity misses into hits.
  LoopNest nest = codes::example_8();
  auto res = minimize_mws_2d(nest);
  ASSERT_TRUE(res.has_value());
  CacheConfig cfg{30, 1, 0};  // between 21 (after) and 44 (before)
  auto layouts = default_layouts(nest);
  CacheStats before = simulate_cache(nest, layouts, cfg);
  CacheStats after = simulate_cache(nest, layouts, cfg, &res->transform);
  EXPECT_LT(after.misses, before.misses);
  EXPECT_EQ(after.misses, after.cold_misses);  // all reuse captured
}

TEST(CacheSim, ColdMissesEqualDistinctLines) {
  LoopNest nest = codes::kernel_two_point(12);
  auto layouts = default_layouts(nest);
  CacheConfig cfg{4096, 4, 0};
  CacheStats s = simulate_cache(nest, layouts, cfg);
  SpatialStats lines = simulate_lines(nest, layouts, 4);
  EXPECT_EQ(s.cold_misses, lines.distinct_lines);
}

TEST(CacheSim, ArraysDoNotShareLines) {
  // Two arrays whose touched regions would collide if packed naively; the
  // aligned bases keep their lines disjoint, so cold misses add up exactly.
  LoopNest nest = codes::kernel_matmult(4);
  auto layouts = default_layouts(nest);
  CacheStats s = simulate_cache(nest, layouts, CacheConfig{1024, 4, 0});
  SpatialStats lines = simulate_lines(nest, layouts, 4);
  EXPECT_EQ(s.cold_misses, lines.distinct_lines);
}

}  // namespace
}  // namespace lmre
