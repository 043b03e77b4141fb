// Unit tests for spf_mem: cache geometry and address arithmetic.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "spf/mem/geometry.hpp"

namespace spf {
namespace {

/// What CacheGeometry's constructor throws for the triple ("" if nothing).
std::string rejection(std::uint64_t size, std::uint32_t ways,
                      std::uint32_t line) {
  try {
    (void)CacheGeometry(size, ways, line);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CacheGeometryTest, Core2L2MatchesPaperTable1) {
  const CacheGeometry l2 = CacheGeometry::core2_l2();
  EXPECT_EQ(l2.size_bytes(), 4u * 1024 * 1024);
  EXPECT_EQ(l2.ways(), 16u);
  EXPECT_EQ(l2.line_bytes(), 64u);
  EXPECT_EQ(l2.num_sets(), 4096u);
}

TEST(CacheGeometryTest, Core2L1MatchesPaperTable1) {
  const CacheGeometry l1 = CacheGeometry::core2_l1d();
  EXPECT_EQ(l1.size_bytes(), 32u * 1024);
  EXPECT_EQ(l1.ways(), 8u);
  EXPECT_EQ(l1.num_sets(), 64u);
}

TEST(CacheGeometryTest, LineOfStripsOffset) {
  const CacheGeometry g(1 << 16, 4, 64);
  EXPECT_EQ(g.line_of(0), 0u);
  EXPECT_EQ(g.line_of(63), 0u);
  EXPECT_EQ(g.line_of(64), 1u);
  EXPECT_EQ(g.line_of(0x12345), 0x12345u >> 6);
}

TEST(CacheGeometryTest, BaseOfInvertsLineOf) {
  const CacheGeometry g(1 << 16, 4, 64);
  for (Addr a : {Addr{0}, Addr{64}, Addr{0xdeadbe00}}) {
    EXPECT_EQ(g.base_of(g.line_of(a)), a & ~Addr{63});
  }
}

TEST(CacheGeometryTest, SetMappingWrapsAtNumSets) {
  const CacheGeometry g(64 * 1024, 4, 64);  // 256 sets
  EXPECT_EQ(g.num_sets(), 256u);
  EXPECT_EQ(g.set_of(0), 0u);
  EXPECT_EQ(g.set_of(64), 1u);
  EXPECT_EQ(g.set_of(256 * 64), 0u);  // wraps
  EXPECT_EQ(g.set_of(257 * 64), 1u);
}

TEST(CacheGeometryTest, TagDisambiguatesAliasedLines) {
  const CacheGeometry g(64 * 1024, 4, 64);
  const LineAddr a = g.line_of(0);
  const LineAddr b = g.line_of(256 * 64);  // same set, different tag
  EXPECT_EQ(g.set_of_line(a), g.set_of_line(b));
  EXPECT_NE(g.tag_of_line(a), g.tag_of_line(b));
}

TEST(CacheGeometryTest, SingleSetCache) {
  const CacheGeometry g(512, 8, 64);  // fully associative: 1 set
  EXPECT_EQ(g.num_sets(), 1u);
  EXPECT_EQ(g.set_of(0x1000), 0u);
  EXPECT_EQ(g.set_of(0xffffffc0), 0u);
}

TEST(CacheGeometryTest, EqualityAndToString) {
  const CacheGeometry a(1 << 20, 16, 64);
  const CacheGeometry b(1 << 20, 16, 64);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.to_string().find("1MB"), std::string::npos);
  EXPECT_NE(a.to_string().find("16-way"), std::string::npos);
}

TEST(CacheGeometryDeathTest, RejectsNonPowerOfTwo) {
  EXPECT_THROW(CacheGeometry(1000, 4, 64), std::invalid_argument);
  EXPECT_THROW(CacheGeometry(1 << 16, 3, 64), std::invalid_argument);
  EXPECT_THROW(CacheGeometry(1 << 16, 4, 48), std::invalid_argument);
  EXPECT_EQ(rejection(1000, 4, 64), "cache size must be a power of two");
  EXPECT_EQ(rejection(1 << 16, 3, 64), "associativity must be a power of two");
  EXPECT_EQ(rejection(1 << 16, 4, 48), "line size must be a power of two");
  EXPECT_EQ(rejection(1 << 16, 4, 64), "");
}

TEST(CacheGeometryDeathTest, RejectsCacheSmallerThanOneSet) {
  EXPECT_THROW(CacheGeometry(64, 4, 64), std::invalid_argument);
  EXPECT_EQ(rejection(64, 4, 64), "cache must hold at least one set");
}

TEST(TypesTest, EnumNames) {
  EXPECT_STREQ(to_string(AccessKind::kRead), "read");
  EXPECT_STREQ(to_string(AccessKind::kWrite), "write");
  EXPECT_STREQ(to_string(AccessKind::kPrefetch), "prefetch");
  EXPECT_STREQ(to_string(FillOrigin::kDemand), "demand");
  EXPECT_STREQ(to_string(FillOrigin::kHelper), "helper");
  EXPECT_STREQ(to_string(FillOrigin::kHardware), "hardware");
}

}  // namespace
}  // namespace spf
