// Differential tests: the optimized cache model against a brutally simple
// reference implementation, under long randomized operation sequences.
#include <gtest/gtest.h>

#include <bit>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "spf/cache/cache.hpp"
#include "spf/common/rng.hpp"

namespace spf {
namespace {

/// Reference set-associative LRU cache: per-set std::list, front = MRU.
class ReferenceLruCache {
 public:
  ReferenceLruCache(const CacheGeometry& g) : geometry_(g) {}

  bool access(LineAddr line) {
    auto& set = sets_[geometry_.set_of_line(line)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.splice(set.begin(), set, it);
        return true;
      }
    }
    return false;
  }

  std::optional<LineAddr> fill(LineAddr line) {
    auto& set = sets_[geometry_.set_of_line(line)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.splice(set.begin(), set, it);
        return std::nullopt;
      }
    }
    std::optional<LineAddr> victim;
    if (set.size() == geometry_.ways()) {
      victim = set.back();
      set.pop_back();
    }
    set.push_front(line);
    return victim;
  }

  bool invalidate(LineAddr line) {
    auto& set = sets_[geometry_.set_of_line(line)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.erase(it);
        return true;
      }
    }
    return false;
  }

 private:
  CacheGeometry geometry_;
  std::map<std::uint64_t, std::list<LineAddr>> sets_;
};

class LruDifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(LruDifferentialTest, RandomOpsAgreeWithReference) {
  const auto [size, ways] = GetParam();
  const CacheGeometry g(size, ways, 64);
  Cache cache(g, ReplacementKind::kLru);
  ReferenceLruCache ref(g);
  Xoshiro256 rng(size * 31 + ways);

  const std::uint64_t universe = g.num_sets() * g.ways() * 3;
  for (int op = 0; op < 20000; ++op) {
    const LineAddr line = rng.below(universe);
    const std::uint64_t kind = rng.below(10);
    if (kind < 6) {
      // access (hit updates recency), fill on miss — the demand path.
      const bool hit = cache.access(line, AccessKind::kRead, op);
      const bool ref_hit = ref.access(line);
      ASSERT_EQ(hit, ref_hit) << "op " << op << " line " << line;
      if (!hit) {
        const auto evicted = cache.fill(line, FillOrigin::kDemand, 0, op);
        const auto ref_evicted = ref.fill(line);
        ASSERT_EQ(evicted.has_value(), ref_evicted.has_value()) << "op " << op;
        if (evicted) {
          ASSERT_EQ(evicted->victim.line, *ref_evicted) << "op " << op;
        }
      }
    } else if (kind < 9) {
      // prefetch-style fill without prior access.
      const auto evicted = cache.fill(line, FillOrigin::kHardware, 0, op);
      const auto ref_evicted = ref.fill(line);
      ASSERT_EQ(evicted.has_value(), ref_evicted.has_value()) << "op " << op;
      if (evicted) {
        ASSERT_EQ(evicted->victim.line, *ref_evicted) << "op " << op;
      }
    } else {
      ASSERT_EQ(cache.invalidate(line), ref.invalidate(line)) << "op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruDifferentialTest,
    ::testing::Values(std::make_tuple(std::uint64_t{1} << 10, 2u),
                      std::make_tuple(std::uint64_t{1} << 12, 4u),
                      std::make_tuple(std::uint64_t{1} << 14, 16u),
                      std::make_tuple(std::uint64_t{1} << 12, 1u),
                      std::make_tuple(std::uint64_t{512}, 8u),
                      std::make_tuple(std::uint64_t{1} << 15, 32u),
                      std::make_tuple(std::uint64_t{1} << 16, 64u),
                      std::make_tuple(std::uint64_t{1} << 12, 64u)),
    [](const auto& param_info) {
      return "bytes" + std::to_string(std::get<0>(param_info.param)) + "_ways" +
             std::to_string(std::get<1>(param_info.param));
    });

// The cache filters a set's ways by the low 16 bits of each tag before
// comparing one full tag. Lines whose tags are 2^16 apart share that partial
// tag; a universe made mostly of such lines inside one set makes nearly every
// lookup see several candidate ways, and hits, misses and victims must still
// match the reference op for op.
class PartialTagCollisionTest : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(PartialTagCollisionTest, CollidingTagsAgreeWithReference) {
  const std::uint32_t ways = GetParam();
  const CacheGeometry g(std::uint64_t{64} * ways * 4, ways, 64);  // 4 sets
  const auto set_shift = static_cast<std::uint32_t>(
      std::countr_zero(g.num_sets()));
  constexpr std::uint64_t kSet = 1;
  std::vector<LineAddr> universe;
  for (std::uint64_t k = 0; k < 3 * std::uint64_t{ways}; ++k) {
    universe.push_back((((k << 16) | 0x5a5a) << set_shift) | kSet);
  }
  for (std::uint64_t k = 1; k <= ways / 2 + 1; ++k) {
    universe.push_back(((0x5a5a + k) << set_shift) | kSet);
  }
  for (const LineAddr line : universe) {
    ASSERT_EQ(g.set_of_line(line), kSet);
  }
  ASSERT_EQ(g.tag_of_line(universe[0]) & 0xffff,
            g.tag_of_line(universe[1]) & 0xffff);
  ASSERT_NE(universe[0], universe[1]);

  Cache cache(g, ReplacementKind::kLru);
  ReferenceLruCache ref(g);
  Xoshiro256 rng(0xc0111de + ways);
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  for (int op = 0; op < 20000; ++op) {
    const LineAddr line = universe[rng.below(universe.size())];
    const std::uint64_t kind = rng.below(10);
    if (kind < 6) {
      const bool hit = cache.access(line, AccessKind::kRead, op);
      ASSERT_EQ(hit, ref.access(line)) << "op " << op << " line " << line;
      ASSERT_EQ(cache.contains(line), hit) << "op " << op;
      if (hit) {
        ++hits;
        continue;
      }
      const auto evicted = cache.fill(line, FillOrigin::kDemand, 0, op);
      const auto ref_evicted = ref.fill(line);
      ASSERT_EQ(evicted.has_value(), ref_evicted.has_value()) << "op " << op;
      if (evicted) {
        ++evictions;
        ASSERT_EQ(evicted->victim.line, *ref_evicted) << "op " << op;
        ASSERT_FALSE(cache.contains(*ref_evicted)) << "op " << op;
      }
    } else if (kind < 9) {
      const auto evicted = cache.fill(line, FillOrigin::kHelper, 0, op);
      const auto ref_evicted = ref.fill(line);
      ASSERT_EQ(evicted.has_value(), ref_evicted.has_value()) << "op " << op;
      if (evicted) {
        ++evictions;
        ASSERT_EQ(evicted->victim.line, *ref_evicted) << "op " << op;
      }
    } else {
      ASSERT_EQ(cache.invalidate(line), ref.invalidate(line)) << "op " << op;
    }
    ASSERT_TRUE(cache.probe(line).has_value() || kind == 9) << "op " << op;
  }
  // The mix exercised both outcomes, not just a stream of misses.
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(evictions, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Ways, PartialTagCollisionTest,
                         ::testing::Values(8u, 16u, 64u),
                         [](const auto& param_info) {
                           return "ways" + std::to_string(param_info.param);
                         });

// The reference model also cross-checks the CALR estimator's cache pass: its
// l1+l2 hit counts must equal what the reference hierarchy produces.
TEST(CalrDifferentialTest, HitCountsMatchReferenceHierarchy) {
  const CacheGeometry l1g(1024, 2, 64);
  const CacheGeometry l2g(8192, 4, 64);
  ReferenceLruCache ref_l1(l1g);
  ReferenceLruCache ref_l2(l2g);
  Cache l1(l1g, ReplacementKind::kLru);
  Cache l2(l2g, ReplacementKind::kLru);

  Xoshiro256 rng(77);
  std::uint64_t hits_l1 = 0;
  std::uint64_t hits_l2 = 0;
  std::uint64_t ref_hits_l1 = 0;
  std::uint64_t ref_hits_l2 = 0;
  for (int op = 0; op < 30000; ++op) {
    const LineAddr line = rng.below(512);
    if (l1.access(line, AccessKind::kRead, op)) {
      ++hits_l1;
    } else {
      if (l2.access(line, AccessKind::kRead, op)) {
        ++hits_l2;
      } else {
        l2.fill(line, FillOrigin::kDemand, 0, op);
      }
      l1.fill(line, FillOrigin::kDemand, 0, op);
    }
    if (ref_l1.access(line)) {
      ++ref_hits_l1;
    } else {
      if (ref_l2.access(line)) {
        ++ref_hits_l2;
      } else {
        ref_l2.fill(line);
      }
      ref_l1.fill(line);
    }
  }
  EXPECT_EQ(hits_l1, ref_hits_l1);
  EXPECT_EQ(hits_l2, ref_hits_l2);
}

}  // namespace
}  // namespace spf
