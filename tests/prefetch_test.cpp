// Unit tests for the hardware prefetcher models (DPL stride + streamer) and
// their per-core pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "spf/prefetch/core_prefetchers.hpp"
#include "spf/prefetch/stream.hpp"
#include "spf/prefetch/stride.hpp"

namespace spf {
namespace {

/// Runs one observation through the engine's observe_into and appends its
/// candidates to `out`.
template <typename Engine>
void feed(Engine& pf, const PrefetchObservation& obs,
          std::vector<LineAddr>& out) {
  LineAddr buf[kMaxPrefetchDegree]{};
  const std::uint32_t n = pf.observe_into(obs, buf);
  out.insert(out.end(), buf, buf + n);
}

template <typename Engine>
std::vector<LineAddr> observe_seq(Engine& pf, const std::vector<Addr>& addrs,
                                  SiteId site = 1, bool miss = true) {
  std::vector<LineAddr> out;
  for (Addr a : addrs) {
    feed(pf, PrefetchObservation{.addr = a, .site = site, .was_miss = miss},
         out);
  }
  return out;
}

TEST(StridePrefetcherTest, DetectsConstantStrideAfterTraining) {
  StrideConfig cfg;
  cfg.threshold = 2;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  // Stride 128: addresses 0,128,256,384. Confidence reaches 2 at the 4th
  // access (two consecutive equal strides), which then prefetches 384+128.
  const auto out = observe_seq(pf, {0, 128, 256, 384});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), (384u + 128u) / 64);
}

TEST(StridePrefetcherTest, NoIssueBeforeConfidence) {
  StrideConfig cfg;
  cfg.threshold = 2;
  StridePrefetcher pf(cfg);
  EXPECT_TRUE(observe_seq(pf, {0, 128}).empty());  // one stride sample only
}

TEST(StridePrefetcherTest, DegreeIssuesMultipleStrides) {
  StrideConfig cfg;
  cfg.threshold = 1;
  cfg.degree = 3;
  StridePrefetcher pf(cfg);
  // First access allocates the entry, second establishes the stride, third
  // reaches confidence and prefetches 768/1024/1280.
  const auto out = observe_seq(pf, {0, 256, 512});
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(std::find(out.begin(), out.end(), 768 / 64) != out.end());
  EXPECT_TRUE(std::find(out.begin(), out.end(), 1280 / 64) != out.end());
}

TEST(StridePrefetcherTest, StrideChangeDropsConfidence) {
  StrideConfig cfg;
  cfg.threshold = 2;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  auto out = observe_seq(pf, {0, 128, 256, 384});  // confident
  out.clear();
  // Break the pattern; confidence decays, no issue on the new first stride.
  feed(pf, PrefetchObservation{.addr = 4096, .site = 1, .was_miss = true}, out);
  feed(pf, PrefetchObservation{.addr = 4096 + 64, .site = 1, .was_miss = true},
       out);
  EXPECT_TRUE(out.empty());
}

TEST(StridePrefetcherTest, SmallStrideWithinLineIssuesNothing) {
  StrideConfig cfg;
  cfg.threshold = 1;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  // Stride 8 stays within the current line: candidates equal the current
  // line and are suppressed.
  const auto out = observe_seq(pf, {0, 8, 16, 24});
  EXPECT_TRUE(out.empty());
}

TEST(StridePrefetcherTest, DifferentSitesTrainIndependently) {
  StrideConfig cfg;
  cfg.threshold = 1;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  std::vector<LineAddr> out;
  // Interleave two sites with different strides; both should train.
  for (int i = 0; i < 4; ++i) {
    feed(pf,
         PrefetchObservation{.addr = static_cast<Addr>(i) * 128, .site = 1,
                             .was_miss = true},
         out);
    feed(pf,
         PrefetchObservation{.addr = 100000 + static_cast<Addr>(i) * 256,
                             .site = 2, .was_miss = true},
         out);
  }
  EXPECT_FALSE(out.empty());
}

TEST(StridePrefetcherTest, NegativeStrideWorks) {
  StrideConfig cfg;
  cfg.threshold = 1;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  const auto out = observe_seq(pf, {10000, 10000 - 128, 10000 - 256});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), (10000u - 384u) / 64);
}

TEST(StridePrefetcherTest, ResetClearsTraining) {
  StrideConfig cfg;
  cfg.threshold = 1;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  observe_seq(pf, {0, 128, 256});
  EXPECT_GT(pf.issued(), 0u);
  pf.reset();
  EXPECT_EQ(pf.issued(), 0u);
  EXPECT_TRUE(observe_seq(pf, {0}).empty());
}

TEST(StreamPrefetcherTest, TwoAdjacentMissesArmAscendingStream) {
  StreamConfig cfg;
  cfg.distance = 4;
  cfg.degree = 2;
  StreamPrefetcher pf(cfg);
  std::vector<LineAddr> out;
  feed(pf, PrefetchObservation{.addr = 4096, .site = 0, .was_miss = true}, out);
  EXPECT_TRUE(out.empty());  // training
  feed(pf, PrefetchObservation{.addr = 4096 + 64, .site = 0, .was_miss = true},
       out);
  // Armed: window pulls ahead of line 65 by up to `degree` lines.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 4096u / 64 + 2);
  EXPECT_EQ(out[1], 4096u / 64 + 3);
}

TEST(StreamPrefetcherTest, DescendingStreams) {
  StreamConfig cfg;
  cfg.degree = 2;
  StreamPrefetcher pf(cfg);
  std::vector<LineAddr> out;
  const Addr top = 8192 - 64;
  feed(pf, PrefetchObservation{.addr = top, .site = 0, .was_miss = true}, out);
  feed(pf, PrefetchObservation{.addr = top - 64, .site = 0, .was_miss = true},
       out);
  ASSERT_FALSE(out.empty());
  EXPECT_LT(out[0], (top - 64) / 64);
}

TEST(StreamPrefetcherTest, NeverCrossesPageBoundary) {
  StreamConfig cfg;
  cfg.distance = 16;
  cfg.degree = 16;
  StreamPrefetcher pf(cfg);
  std::vector<LineAddr> out;
  // Arm a stream near the top of a 4KB page.
  const Addr near_top = 4096 - 3 * 64;
  feed(pf, PrefetchObservation{.addr = near_top, .site = 0, .was_miss = true},
       out);
  feed(pf,
       PrefetchObservation{.addr = near_top + 64, .site = 0, .was_miss = true},
       out);
  for (LineAddr line : out) {
    EXPECT_LT(line, 4096u / 64) << "prefetch crossed the page";
  }
}

TEST(StreamPrefetcherTest, HitsDoNotTrainNewStreams) {
  StreamPrefetcher pf(StreamConfig{});
  std::vector<LineAddr> out;
  feed(pf, PrefetchObservation{.addr = 0, .site = 0, .was_miss = false}, out);
  feed(pf, PrefetchObservation{.addr = 64, .site = 0, .was_miss = false}, out);
  EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcherTest, WindowRespectsDistance) {
  StreamConfig cfg;
  cfg.distance = 3;
  cfg.degree = 8;  // degree larger than distance: distance must clip
  StreamPrefetcher pf(cfg);
  std::vector<LineAddr> out;
  feed(pf, PrefetchObservation{.addr = 4096, .site = 0, .was_miss = true}, out);
  feed(pf, PrefetchObservation{.addr = 4096 + 64, .site = 0, .was_miss = true},
       out);
  EXPECT_LE(out.size(), 3u);
  for (LineAddr line : out) {
    EXPECT_LE(line - (4096 + 64) / 64, 3u);
  }
}

TEST(StreamPrefetcherTest, ManyStreamsTrackedConcurrently) {
  StreamConfig cfg;
  cfg.streams = 4;
  cfg.degree = 1;
  StreamPrefetcher pf(cfg);
  std::vector<LineAddr> out;
  // Arm four streams in four different pages.
  for (Addr page = 0; page < 4; ++page) {
    const Addr base = (page + 10) * 4096;
    feed(pf, PrefetchObservation{.addr = base, .site = 0, .was_miss = true},
         out);
    feed(pf,
         PrefetchObservation{.addr = base + 64, .site = 0, .was_miss = true},
         out);
  }
  EXPECT_EQ(out.size(), 4u);
}

// CorePrefetchers chains the stride engine and the streamer into one
// candidate buffer; its reset must reach both links of the chain.
TEST(PrefetcherChainTest, ResetPropagates) {
  CorePrefetchers chain(64);
  std::vector<LineAddr> out;
  for (int i = 0; i < 6; ++i) {
    chain.observe(PrefetchObservation{.addr = static_cast<Addr>(i) * 64,
                                      .site = 1, .was_miss = true},
                  out);
  }
  EXPECT_GT(chain.stride().issued(), 0u);
  EXPECT_GT(chain.stream().issued(), 0u);
  chain.reset();
  EXPECT_EQ(chain.stride().issued(), 0u);
  EXPECT_EQ(chain.stream().issued(), 0u);
  out.clear();
  chain.observe(PrefetchObservation{.addr = 1 << 20, .site = 1, .was_miss = true},
                out);
  EXPECT_TRUE(out.empty());  // back to training from scratch
}

}  // namespace
}  // namespace spf
