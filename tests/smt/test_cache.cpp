#include "smt/cache.hpp"

#include <gtest/gtest.h>

namespace vds::smt {
namespace {

CacheConfig small_cache() {
  CacheConfig config;
  config.sets = 4;
  config.ways = 2;
  config.line_words = 4;
  config.hit_latency = 2;
  config.miss_latency = 20;
  return config;
}

TEST(CacheConfig, Validation) {
  EXPECT_NO_THROW(small_cache().validate());
  CacheConfig bad = small_cache();
  bad.sets = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = small_cache();
  bad.miss_latency = 1;  // < hit
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = small_cache();
  bad.hit_latency = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Cache, ColdMissThenHit) {
  Cache cache(small_cache());
  EXPECT_FALSE(cache.access_hit(0));  // cold miss
  EXPECT_TRUE(cache.access_hit(0));   // hit
  EXPECT_TRUE(cache.access_hit(3));   // same line
  EXPECT_FALSE(cache.access_hit(4));  // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, AssociativityHoldsConflictingLines) {
  Cache cache(small_cache());
  // Two lines mapping to the same set (stride = sets * line_words).
  const std::uint64_t stride = 4 * 4;
  cache.access_hit(0);
  cache.access_hit(stride);
  EXPECT_TRUE(cache.access_hit(0));  // both fit in 2 ways
  EXPECT_TRUE(cache.access_hit(stride));
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache cache(small_cache());
  const std::uint64_t stride = 4 * 4;
  cache.access_hit(0 * stride);  // way 0
  cache.access_hit(1 * stride);  // way 1
  cache.access_hit(0 * stride);  // touch line 0 -> line 1 is now LRU
  cache.access_hit(2 * stride);  // evicts line 1
  EXPECT_TRUE(cache.access_hit(0 * stride));   // still resident
  EXPECT_FALSE(cache.access_hit(1 * stride));  // was evicted
}

TEST(Cache, HitRate) {
  Cache cache(small_cache());
  for (int k = 0; k < 4; ++k) cache.access_hit(0);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, SequentialFootprintFitsWhenSmall) {
  // 4 sets x 2 ways x 4 words = 32 words capacity.
  Cache cache(small_cache());
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t addr = 0; addr < 32; ++addr) cache.access_hit(addr);
  }
  // Second pass should be all hits: 32 hits from pass 1 re-walk plus
  // the 3-of-4 same-line hits in pass 0.
  EXPECT_EQ(cache.misses(), 8u);  // 8 distinct lines, cold only
}

TEST(Cache, ThrashingFootprintMisses) {
  Cache cache(small_cache());
  // 128 words = 32 lines >> capacity of 8 lines: every new line misses
  // on a cyclic walk.
  std::uint64_t misses_before = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t addr = 0; addr < 128; addr += 4) {
      cache.access_hit(addr);
    }
    if (pass == 0) misses_before = cache.misses();
  }
  EXPECT_EQ(cache.misses(), misses_before * 3);
}

}  // namespace
}  // namespace vds::smt
