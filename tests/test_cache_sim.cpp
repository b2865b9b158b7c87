// Set-associative LRU cache simulation.
#include "perf/cache_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace grover::perf {
namespace {

CacheLevelSpec smallCache() {
  // 1 KiB, 2-way, 64B lines → 8 sets.
  return {1024, 2, 64, 4};
}

TEST(CacheLevel, ColdMissThenHit) {
  CacheLevel cache(smallCache());
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(63));    // same line
  EXPECT_FALSE(cache.access(64));   // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheLevel, LruEvictionWithinSet) {
  CacheLevel cache(smallCache());
  // Three lines mapping to set 0 (stride = sets*lineSize = 512).
  cache.access(0);
  cache.access(512);
  cache.access(1024);          // evicts line 0 (LRU)
  EXPECT_FALSE(cache.contains(0));
  EXPECT_TRUE(cache.contains(512));
  EXPECT_TRUE(cache.contains(1024));
}

TEST(CacheLevel, LruRefreshOnHit) {
  CacheLevel cache(smallCache());
  cache.access(0);
  cache.access(512);
  cache.access(0);      // refresh line 0
  cache.access(1024);   // now 512 is LRU and gets evicted
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(512));
}

TEST(CacheLevel, DisabledCacheNeverHits) {
  CacheLevel cache(CacheLevelSpec{0, 2, 64, 4});
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(0));
}

TEST(CacheLevel, ResetClearsState) {
  CacheLevel cache(smallCache());
  cache.access(0);
  cache.reset();
  EXPECT_FALSE(cache.contains(0));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(CacheLevel, PowerOfTwoStrideThrashesOneSet) {
  // The mechanism behind the paper's NVD-MM-B loss: 4 KiB-strided rows all
  // land in one set of a small cache and thrash.
  CacheLevelSpec spec{32 * 1024, 8, 64, 4};  // L1: 64 sets, 4 KiB set span
  CacheLevel cache(spec);
  const std::uint64_t stride = 4096;
  // First pass: 16 lines, same set → all miss.
  for (int r = 0; r < 16; ++r) cache.access(r * stride);
  // Second pass: with only 8 ways, LRU guarantees all miss again.
  const std::uint64_t missesBefore = cache.misses();
  for (int r = 0; r < 16; ++r) cache.access(r * stride);
  EXPECT_EQ(cache.misses(), missesBefore + 16);
}

TEST(CacheLevel, SequentialLinesDoNotThrash) {
  CacheLevelSpec spec{32 * 1024, 8, 64, 4};
  CacheLevel cache(spec);
  for (int r = 0; r < 16; ++r) cache.access(r * 64);
  for (int r = 0; r < 16; ++r) EXPECT_TRUE(cache.access(r * 64));
}

/// The latency of one access through `hier` and then `llc` (null: no
/// LLC), resolved the way CpuModel does: the worst of the private hits and
/// of each private-miss line's LLC hit or memory latency.
double accessThrough(CacheHierarchy& hier, CacheLevel* llc, double memCycles,
                     std::uint64_t address, std::uint32_t size) {
  std::vector<std::uint64_t> deferred;
  double worst = hier.accessPrivate(address, size, deferred);
  for (const std::uint64_t line : deferred) {
    const bool llcHit = llc != nullptr && llc->access(line);
    worst = std::max(worst, llcHit ? llc->spec().hitCycles : memCycles);
  }
  return worst;
}

TEST(CacheHierarchy, LatencyByHitLevel) {
  std::vector<CacheLevelSpec> levels{{1024, 2, 64, 4}, {4096, 4, 64, 12}};
  CacheLevel llc({16384, 8, 64, 30});
  CacheHierarchy hier(levels);
  const auto access = [&](std::uint64_t address) {
    return accessThrough(hier, &llc, 200, address, 4);
  };
  EXPECT_DOUBLE_EQ(access(0), 200);  // cold: DRAM
  EXPECT_DOUBLE_EQ(access(0), 4);    // L1 hit
  // Evict from tiny L1 by touching other set-0 lines, then L2 hit.
  access(512);
  access(1024);
  EXPECT_DOUBLE_EQ(access(0), 12);
}

TEST(CacheHierarchy, NoLlcFallsToMemory) {
  std::vector<CacheLevelSpec> levels{{1024, 2, 64, 4}};
  CacheHierarchy hier(levels);
  EXPECT_DOUBLE_EQ(accessThrough(hier, nullptr, 300, 0, 4), 300);
  EXPECT_DOUBLE_EQ(accessThrough(hier, nullptr, 300, 0, 4), 4);
}

TEST(CacheHierarchy, LineCrossingAccessTakesWorstLine) {
  std::vector<CacheLevelSpec> levels{{1024, 2, 64, 4}};
  CacheHierarchy hier(levels);
  accessThrough(hier, nullptr, 300, 0, 4);  // warm line 0
  // Access straddling lines 0 and 1: line 1 cold → DRAM latency.
  EXPECT_DOUBLE_EQ(accessThrough(hier, nullptr, 300, 60, 8), 300);
  EXPECT_DOUBLE_EQ(accessThrough(hier, nullptr, 300, 60, 8), 4);  // warm
}

/// The tick LRU the tag-only recency order replaced: every way keeps a
/// tag and the tick of its last access, and a miss fills the first way
/// with the smallest tick (an empty way's is 0).
class TickLru {
 public:
  explicit TickLru(const CacheLevelSpec& spec)
      : spec_(spec),
        sets_(spec.bytes / spec.lineSize / spec.ways),
        ways_(spec.bytes / spec.lineSize) {}

  bool access(std::uint64_t address) {
    const std::uint64_t line = address / spec_.lineSize;
    Way* set = &ways_[(line % sets_) * spec_.ways];
    ++tick_;
    Way* victim = set;
    for (unsigned i = 0; i < spec_.ways; ++i) {
      if (set[i].tag == line) {
        set[i].lru = tick_;
        ++hits_;
        return true;
      }
      if (set[i].lru < victim->lru) victim = &set[i];
    }
    ++misses_;
    victim->tag = line;
    victim->lru = tick_;
    return false;
  }
  bool contains(std::uint64_t address) const {
    const std::uint64_t line = address / spec_.lineSize;
    const Way* set = &ways_[(line % sets_) * spec_.ways];
    for (unsigned i = 0; i < spec_.ways; ++i) {
      if (set[i].tag == line) return true;
    }
    return false;
  }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Way {
    std::uint64_t tag = ~0ULL;
    std::uint64_t lru = 0;
  };
  CacheLevelSpec spec_;
  std::uint64_t sets_;
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

TEST(CacheLevel, MatchesTickLruReference) {
  // 1-, 2-, 8- and 16-way geometries (one of them with a set count that is
  // not a power of two), fed seeded address streams that mix reuse of a
  // small working set, set-conflicting strides and cold lines.
  const CacheLevelSpec specs[] = {{2048, 1, 64, 4},
                                  {4096, 2, 64, 4},
                                  {32 * 1024, 8, 64, 4},
                                  {24 * 1024, 16, 64, 4}};
  for (const CacheLevelSpec& spec : specs) {
    for (const std::uint32_t seed : {1U, 2U, 3U}) {
      CacheLevel cache(spec);
      TickLru reference(spec);
      std::mt19937_64 rng(seed);
      const std::uint64_t span = spec.bytes / spec.ways;  // one way's bytes
      for (int n = 0; n < 20000; ++n) {
        std::uint64_t address = 0;
        switch (rng() % 3) {
          case 0:  // working set of 1.5 × capacity
            address = rng() % (spec.bytes + spec.bytes / 2);
            break;
          case 1:  // lines that all land in a few sets
            address = (rng() % 4) * 64 + (rng() % (3 * spec.ways)) * span;
            break;
          default:  // anywhere
            address = rng() % (std::uint64_t{1} << 40);
            break;
        }
        const std::string what = std::to_string(spec.ways) + "-way, seed " +
                                 std::to_string(seed) + ", access " +
                                 std::to_string(n);
        ASSERT_EQ(cache.access(address), reference.access(address)) << what;
        const std::uint64_t probe = rng() % (spec.bytes * 2);
        ASSERT_EQ(cache.contains(probe), reference.contains(probe)) << what;
        ASSERT_EQ(cache.contains(address), reference.contains(address))
            << what;
      }
      EXPECT_EQ(cache.hits(), reference.hits());
      EXPECT_EQ(cache.misses(), reference.misses());
      EXPECT_GT(cache.hits(), 0u);
      EXPECT_GT(cache.misses(), 0u);
    }
  }
}

// Property: hits + misses == accesses, and a repeat pass over a working
// set smaller than capacity always hits.
class CacheProperty : public ::testing::TestWithParam<int> {};

TEST_P(CacheProperty, SmallWorkingSetAlwaysHitsOnSecondPass) {
  const unsigned waysExp = static_cast<unsigned>(GetParam());
  CacheLevelSpec spec{8192, 1u << (waysExp % 4), 64, 4};
  CacheLevel cache(spec);
  const std::uint64_t lines = spec.bytes / spec.lineSize / 2;  // half cap
  for (std::uint64_t i = 0; i < lines; ++i) cache.access(i * 64);
  for (std::uint64_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(cache.access(i * 64)) << "line " << i;
  }
  EXPECT_EQ(cache.hits() + cache.misses(), 2 * lines);
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheProperty, ::testing::Range(0, 4));

}  // namespace
}  // namespace grover::perf
