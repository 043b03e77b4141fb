// Unit tests for spf_common: RNG, statistics, CSV tables, CLI flags, ring
// buffer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <vector>

#include "spf/common/arena.hpp"
#include "spf/common/cli.hpp"
#include "spf/common/csv.hpp"
#include "spf/common/ring_buffer.hpp"
#include "spf/common/rng.hpp"
#include "spf/common/simd_match.hpp"
#include "spf/common/stats.hpp"

namespace spf {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256Test, Deterministic) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Xoshiro256Test, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Xoshiro256Test, BelowOneIsAlwaysZero) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro256Test, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256Test, RangeInclusiveBounds) {
  Xoshiro256 rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256Test, BelowIsRoughlyUniform) {
  Xoshiro256 rng(13);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kSamples = 100000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RunningStatTest, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  Xoshiro256 rng(3);
  RunningStat all;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmptyIsIdentity) {
  RunningStat a;
  a.add(1.0);
  a.add(3.0);
  RunningStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(HistogramTest, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(-100.0);  // clamps to first bucket
  h.add(100.0);   // clamps to last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(HistogramTest, QuantileInterpolates) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 1.5);
}

TEST(QuantileSketchTest, ExactOrderStatistics) {
  QuantileSketch q;
  for (int i = 100; i >= 1; --i) q.add(i);
  EXPECT_EQ(q.count(), 100u);
  EXPECT_DOUBLE_EQ(q.min(), 1.0);
  EXPECT_DOUBLE_EQ(q.max(), 100.0);
  EXPECT_NEAR(q.quantile(0.5), 50.0, 1.0);
}

TEST(TableTest, AlignedAndCsvOutput) {
  Table t({"name", "value"});
  t.row().add("alpha").add(std::int64_t{42});
  t.row().add("b,eta").add(3.14159, 2);
  const std::string text = t.to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"b,eta\""), std::string::npos);
  EXPECT_NE(csv.find("3.14"), std::string::npos);
}

TEST(TableTest, QuoteEscapingInCsv) {
  Table t({"x"});
  t.row().add("say \"hi\"");
  EXPECT_NE(t.to_csv().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(CliFlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--n=5", "--verbose", "--rate=2.5",
                        "positional", "--name=abc"};
  CliFlags flags(6, argv);
  EXPECT_EQ(flags.get_int("n", 0), 5);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(flags.get("name", ""), "abc");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(CliFlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, argv);
  EXPECT_EQ(flags.get_int("missing", 7), 7);
  EXPECT_FALSE(flags.get_bool("missing", false));
  EXPECT_EQ(flags.get("missing", "d"), "d");
}

TEST(CliFlagsTest, UnconsumedDetectsTypos) {
  const char* argv[] = {"prog", "--good=1", "--typo=2"};
  CliFlags flags(3, argv);
  (void)flags.get_int("good", 0);
  const auto unknown = flags.unconsumed();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(RingBufferTest, PushUntilFullThenEvictsOldest) {
  RingBuffer<int> rb(3);
  int evicted = -1;
  EXPECT_FALSE(rb.push(1, &evicted));
  EXPECT_FALSE(rb.push(2, &evicted));
  EXPECT_FALSE(rb.push(3, &evicted));
  EXPECT_TRUE(rb.full());
  EXPECT_TRUE(rb.push(4, &evicted));
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(rb[0], 2);
  EXPECT_EQ(rb[2], 4);
}

TEST(RingBufferTest, ClearEmpties) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(9);
  EXPECT_EQ(rb[0], 9);
}

TEST(FormatFixedTest, Precision) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(ArenaTest, BumpAllocationIsAlignedAndCounted) {
  Arena arena(256);
  EXPECT_EQ(arena.bytes_served(), 0u);
  void* a = arena.allocate(10, 8);
  void* b = arena.allocate(10, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_GE(arena.bytes_served(), 20u);
  // Bigger than the chunk size: the arena grows a dedicated chunk.
  void* big = arena.allocate(4096, 64);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 64, 0u);
  EXPECT_GE(arena.chunk_count(), 2u);
  arena.release();
  EXPECT_EQ(arena.chunk_count(), 0u);
}

TEST(ArenaTest, AllocatorBacksVectorsAndFallsBackToHeap) {
  Arena arena;
  std::vector<std::uint64_t, ArenaAllocator<std::uint64_t>> v{
      ArenaAllocator<std::uint64_t>(&arena)};
  for (std::uint64_t i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v[999], 999u);
  EXPECT_GT(arena.bytes_served(), 0u);

  // Null arena: plain heap semantics (so default-constructed containers work).
  std::vector<int, ArenaAllocator<int>> heap_backed;
  heap_backed.assign(100, 7);
  EXPECT_EQ(heap_backed[99], 7);
  EXPECT_FALSE(ArenaAllocator<int>(&arena) == ArenaAllocator<int>(nullptr));
}

#ifdef SPF_SIMD_MATCH
TEST(SimdMatchTest, MaskMatchesScalarScan) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng.below(64));
    std::vector<std::uint64_t> vals(n);
    for (auto& v : vals) v = rng.below(8);  // dense duplicates
    const std::uint64_t needle = rng.below(8);
    std::uint64_t expected = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (vals[i] == needle) expected |= std::uint64_t{1} << i;
    }
    EXPECT_EQ(simd::match_mask_u64(vals.data(), n, needle), expected)
        << "n=" << n << " trial=" << trial;
  }
}

TEST(SimdMatchTest, U16MaskMatchesScalarScan) {
  Xoshiro256 rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t n = 8 * (1 + static_cast<std::uint32_t>(rng.below(8)));
    std::vector<std::uint16_t> keys(n);
    // Dense duplicates, plus keys with the sign bit set (the saturating
    // pack must still map every equal lane to exactly one mask bit).
    for (auto& k : keys) k = static_cast<std::uint16_t>(0x7ffe + rng.below(4));
    const auto needle = static_cast<std::uint16_t>(0x7ffe + rng.below(4));
    std::uint64_t expected = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (keys[i] == needle) expected |= std::uint64_t{1} << i;
    }
    EXPECT_EQ(simd::match_mask_u16(keys.data(), n, needle), expected)
        << "n=" << n << " trial=" << trial;
  }
}
#endif  // SPF_SIMD_MATCH

}  // namespace
}  // namespace spf
