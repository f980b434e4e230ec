#include "mcsim/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace imoltp::mcsim {
namespace {

CacheConfig Small(uint32_t size, uint32_t assoc) {
  return CacheConfig{size, 64, assoc};
}

TEST(CacheTest, FirstAccessMissesSecondHits) {
  Cache c(Small(4096, 4));
  EXPECT_FALSE(c.Access(100));
  EXPECT_TRUE(c.Access(100));
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 1u);
}

TEST(CacheTest, LineZeroIsCacheable) {
  Cache c(Small(4096, 4));
  EXPECT_FALSE(c.Access(0));
  EXPECT_TRUE(c.Access(0));
  EXPECT_TRUE(c.Contains(0));
}

TEST(CacheTest, DistinctLinesDoNotAlias) {
  Cache c(Small(4096, 4));
  c.Access(1);
  EXPECT_FALSE(c.Access(2));
  EXPECT_TRUE(c.Contains(1));
  EXPECT_TRUE(c.Contains(2));
}

TEST(CacheTest, CapacityEvictsLeastRecentlyUsed) {
  // 4 sets x 2 ways; lines with the same low bits map to one set.
  Cache c(CacheConfig{512, 64, 2});
  ASSERT_EQ(c.num_sets(), 4u);
  const uint64_t set0[] = {0, 4, 8};  // all map to set 0
  c.Access(set0[0]);
  c.Access(set0[1]);
  c.Access(set0[2]);  // evicts line 0 (LRU)
  EXPECT_FALSE(c.Contains(set0[0]));
  EXPECT_TRUE(c.Contains(set0[1]));
  EXPECT_TRUE(c.Contains(set0[2]));
}

TEST(CacheTest, AccessRefreshesLruOrder) {
  Cache c(CacheConfig{512, 64, 2});
  c.Access(0);
  c.Access(4);
  c.Access(0);  // 4 becomes LRU
  c.Access(8);  // evicts 4
  EXPECT_TRUE(c.Contains(0));
  EXPECT_FALSE(c.Contains(4));
  EXPECT_TRUE(c.Contains(8));
}

TEST(CacheTest, InvalidateRemovesLine) {
  Cache c(Small(4096, 4));
  c.Access(7);
  EXPECT_TRUE(c.Contains(7));
  c.Invalidate(7);
  EXPECT_FALSE(c.Contains(7));
  EXPECT_FALSE(c.Access(7));  // miss again
}

TEST(CacheTest, InvalidateAbsentLineIsNoop) {
  Cache c(Small(4096, 4));
  c.Access(7);
  c.Invalidate(9999);
  EXPECT_TRUE(c.Contains(7));
}

TEST(CacheTest, ResetDropsContentsAndCounters) {
  Cache c(Small(4096, 4));
  c.Access(1);
  c.Access(1);
  c.Reset();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_FALSE(c.Contains(1));
}

TEST(CacheTest, ContainsDoesNotPerturbLru) {
  Cache c(CacheConfig{512, 64, 2});
  c.Access(0);
  c.Access(4);
  // Touch 0 via Contains only; 0 must remain the LRU victim.
  EXPECT_TRUE(c.Contains(0));
  c.Access(8);
  EXPECT_FALSE(c.Contains(0));
}

TEST(CacheTest, HighAddressBitsDifferentiateTags) {
  Cache c(Small(4096, 4));
  const uint64_t a = 5;
  const uint64_t b = 5 | (1ULL << 40);  // same set, different tag
  c.Access(a);
  EXPECT_FALSE(c.Access(b));
  EXPECT_TRUE(c.Contains(a));
  EXPECT_TRUE(c.Contains(b));
}

// Property sweep: for any geometry, a working set no larger than the
// cache must fully hit on the second pass, and a working set twice the
// capacity cycled sequentially must keep missing (LRU worst case).
struct Geometry {
  uint32_t size_bytes;
  uint32_t assoc;
};

class CacheGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometryTest, ResidentWorkingSetHitsOnSecondPass) {
  const Geometry g = GetParam();
  Cache c(CacheConfig{g.size_bytes, 64, g.assoc});
  const uint64_t lines = g.size_bytes / 64;
  for (uint64_t i = 0; i < lines; ++i) c.Access(i);
  const uint64_t misses_before = c.misses();
  for (uint64_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.Access(i)) << "line " << i;
  }
  EXPECT_EQ(c.misses(), misses_before);
}

TEST_P(CacheGeometryTest, OversizedCyclicSweepKeepsMissing) {
  const Geometry g = GetParam();
  Cache c(CacheConfig{g.size_bytes, 64, g.assoc});
  const uint64_t lines = 2 * g.size_bytes / 64;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t i = 0; i < lines; ++i) c.Access(i);
  }
  // Sequential cyclic reuse at 2x capacity defeats LRU entirely.
  EXPECT_EQ(c.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(Geometry{1024, 1}, Geometry{4096, 2},
                      Geometry{32 * 1024, 8}, Geometry{256 * 1024, 8},
                      Geometry{1024 * 1024, 16}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return std::to_string(info.param.size_bytes) + "b" +
             std::to_string(info.param.assoc) + "w";
    });

// Differential check against a straightforward true-LRU model: one
// recency-ordered list per set (front = most recent). Every return value
// and the hit/miss totals must agree under random interleavings of all
// four operations.
class ReferenceLru {
 public:
  ReferenceLru(uint64_t num_sets, uint32_t assoc)
      : sets_(num_sets), assoc_(assoc) {}

  bool Access(uint64_t line) {
    std::list<uint64_t>& set = SetFor(line);
    auto it = std::find(set.begin(), set.end(), line);
    if (it != set.end()) {
      set.splice(set.begin(), set, it);
      ++hits_;
      return true;
    }
    if (set.size() == assoc_) set.pop_back();
    set.push_front(line);
    ++misses_;
    return false;
  }

  bool Contains(uint64_t line) {
    const std::list<uint64_t>& set = SetFor(line);
    return std::find(set.begin(), set.end(), line) != set.end();
  }

  void Invalidate(uint64_t line) { SetFor(line).remove(line); }

  void Reset() {
    for (auto& set : sets_) set.clear();
    hits_ = misses_ = 0;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::list<uint64_t>& SetFor(uint64_t line) {
    return sets_[line & (sets_.size() - 1)];
  }

  std::vector<std::list<uint64_t>> sets_;
  uint32_t assoc_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

class CacheDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CacheDifferentialTest, MatchesReferenceLru) {
  const uint32_t assoc = GetParam();
  // 16 sets of `assoc` ways.
  Cache cache(CacheConfig{16ULL * assoc * 64, 64, assoc});
  ASSERT_EQ(cache.num_sets(), 16u);
  ASSERT_EQ(cache.associativity(), assoc);
  ReferenceLru ref(cache.num_sets(), assoc);
  Rng rng(1000 + assoc);
  // A pool of lines about three times the capacity keeps sets under
  // eviction pressure; some lines carry high tag bits.
  const uint64_t pool = 3 * cache.num_sets() * assoc;
  for (int step = 0; step < 200000; ++step) {
    uint64_t line = rng.Uniform(pool);
    if (rng.Uniform(8) == 0) line |= 1ULL << (40 + rng.Uniform(20));
    const uint64_t op = rng.Uniform(1000);
    if (op < 700) {
      ASSERT_EQ(cache.Access(line), ref.Access(line)) << "step " << step;
    } else if (op < 850) {
      ASSERT_EQ(cache.Contains(line), ref.Contains(line)) << "step " << step;
    } else if (op < 998) {
      cache.Invalidate(line);
      ref.Invalidate(line);
    } else {
      cache.Reset();
      ref.Reset();
    }
    ASSERT_EQ(cache.hits(), ref.hits()) << "step " << step;
    ASSERT_EQ(cache.misses(), ref.misses()) << "step " << step;
  }
  EXPECT_GT(ref.hits(), 0u);
  EXPECT_GT(ref.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Associativities, CacheDifferentialTest,
    ::testing::Values(1u, 2u, 4u, 8u, 20u),
    [](const ::testing::TestParamInfo<uint32_t>& info) {
      return std::to_string(info.param) + "w";
    });

// Concurrent mode (the shared LLC under free-running execution): every
// Access from every thread is counted exactly once, while other threads
// probe and invalidate the same sets.
TEST(CacheTest, ConcurrentAccessCountsEveryCall) {
  Cache cache(CacheConfig{64 * 1024, 64, 8});
  cache.set_concurrent(true);
  constexpr int kThreads = 4;
  constexpr int kCalls = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(t + 1);
      for (int i = 0; i < kCalls; ++i) cache.Access(rng.Uniform(4096));
    });
  }
  std::thread prober([&cache] {
    Rng rng(99);
    for (int i = 0; i < kCalls; ++i) {
      const uint64_t line = rng.Uniform(4096);
      if (cache.Contains(line)) cache.Invalidate(line);
    }
  });
  for (auto& t : threads) t.join();
  prober.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kThreads) * kCalls);
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace imoltp::mcsim
