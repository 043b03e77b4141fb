// Property coverage for the hardware prefetcher engines against the naive
// references in prefetch_reference.hpp:
//   * StreamPrefetcher (fixed arrays, recency-list victim) emits the stamp-
//     scan streamer's candidates in the same order, observation for
//     observation, with equal issued() counts, over seeded random streams at
//     1, 4, 16 and 64 trackers, degrees 1-4, mixed misses and ascending,
//     descending, page-crossing and jumping walks, across a mid-stream reset;
//   * StridePrefetcher matches the vector-appending stride table over
//     interleaved strided walks of one to 300 load sites;
//   * CorePrefetchers::observe_into yields the reference pair's sorted,
//     deduplicated candidates on random streams (also across a mid-stream
//     reset, against a fresh reference) and on the L2-access streams of
//     em3d, mcf and mst;
//   * CorePrefetchers' std::vector overload appends exactly what
//     observe_into writes, a full-degree observation fits a
//     kMaxPrefetchDegree buffer, and a degree above it is rejected at
//     construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "prefetch_reference.hpp"
#include "spf/cache/cache.hpp"
#include "spf/cache/lru_stack.hpp"
#include "spf/prefetch/core_prefetchers.hpp"
#include "spf/prefetch/stream.hpp"
#include "spf/prefetch/stride.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/mcf.hpp"
#include "spf/workloads/mst.hpp"

namespace spf {
namespace {

using test::ReferenceCorePrefetchers;
using test::ReferenceStreamPrefetcher;
using test::ReferenceStridePrefetcher;

constexpr std::uint64_t kLine = 64;

/// A seeded stream of observations from `walkers` concurrent walks. Each
/// step picks a walker and mostly moves it one or two lines along its
/// direction (so walks run across page boundaries), sometimes stays on its
/// line, turns around, or jumps to a random page. Walker 0 starts near
/// address 0 heading down, so stride targets below 0 occur too. Each walker
/// is one load site; `miss_rate` of the observations are misses.
std::vector<PrefetchObservation> random_observations(std::uint64_t seed,
                                                     std::size_t n,
                                                     std::uint32_t walkers,
                                                     double miss_rate) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  struct Walker {
    std::uint64_t line;
    std::int64_t dir;
  };
  std::vector<Walker> walk(walkers);
  for (std::uint32_t w = 0; w < walkers; ++w) {
    walk[w] = w == 0 ? Walker{.line = 40, .dir = -1}
                     : Walker{.line = (std::uint64_t{1} << 20) + rng() % 4096 * 64,
                              .dir = rng() % 2 == 0 ? 1 : -1};
  }
  std::vector<PrefetchObservation> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = static_cast<std::uint32_t>(rng() % walkers);
    Walker& k = walk[w];
    const double move = unit(rng);
    if (move < 0.70) {
      const std::int64_t step = k.dir * static_cast<std::int64_t>(1 + rng() % 2);
      const auto next = static_cast<std::int64_t>(k.line) + step;
      if (next < 0) {
        k.dir = 1;
      } else {
        k.line = static_cast<std::uint64_t>(next);
      }
    } else if (move < 0.82) {
      // Stay on the line.
    } else if (move < 0.92) {
      k.dir = -k.dir;
    } else {
      k.line = (std::uint64_t{1} << 20) + rng() % 4096 * 64 + rng() % 64;
    }
    out.push_back(PrefetchObservation{
        .addr = k.line * kLine + rng() % kLine,
        .site = w,
        .was_miss = unit(rng) < miss_rate});
  }
  return out;
}

/// A seeded stream of `sites` interleaved strided walks, one per load site:
/// each keeps a byte stride (sub-line, line, multi-line or page-sized, either
/// sign) and mostly steps by it, sometimes repeats its address or switches
/// to a new stride. Site 0 starts near address 0 heading down, so targets
/// below 0 occur.
std::vector<PrefetchObservation> stride_observations(std::uint64_t seed,
                                                     std::size_t n,
                                                     std::uint32_t sites) {
  static constexpr std::int64_t kStrides[] = {8, 64, 128, 200, 512, 4096};
  std::mt19937_64 rng(seed);
  auto pick_stride = [&rng] {
    const std::int64_t stride = kStrides[rng() % std::size(kStrides)];
    return rng() % 2 == 0 ? stride : -stride;
  };
  struct Walk {
    std::int64_t addr;
    std::int64_t stride;
  };
  std::vector<Walk> walks(sites);
  for (std::uint32_t s = 0; s < sites; ++s) {
    walks[s] = s == 0 ? Walk{.addr = 1000, .stride = -200}
                      : Walk{.addr = std::int64_t{1} << 30, .stride = pick_stride()};
  }
  std::vector<PrefetchObservation> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::uint32_t>(rng() % sites);
    Walk& w = walks[s];
    const std::uint64_t move = rng() % 20;
    if (move == 0) {
      w.stride = pick_stride();
    } else if (move != 1) {  // move 1 repeats the address
      w.addr = std::max<std::int64_t>(0, w.addr + w.stride);
    }
    out.push_back(PrefetchObservation{.addr = static_cast<Addr>(w.addr),
                                      .site = s,
                                      .was_miss = rng() % 2 == 0});
  }
  return out;
}

/// The observations the simulator's prefetchers see: every demand record
/// that misses a private LRU L1, with `was_miss` set when it also misses an
/// LRU L2 (filled on the miss).
std::vector<PrefetchObservation> l2_access_stream(const TraceBuffer& trace) {
  const CacheGeometry l1 = CacheGeometry::core2_l1d();
  const CacheGeometry l2(64 * 1024, 8, 64);
  LruStack private_l1(l1);
  Cache shared_l2(l2, ReplacementKind::kLru);
  std::vector<PrefetchObservation> out;
  for (const TraceRecord& r : trace) {
    if (r.kind() == AccessKind::kPrefetch) continue;
    if (private_l1.access(l1.line_of(r.addr))) continue;
    const LineAddr line = l2.line_of(r.addr);
    const bool hit = shared_l2.access(line, r.kind(), 0);
    if (!hit) shared_l2.fill(line, FillOrigin::kDemand, 0, 0);
    out.push_back(
        PrefetchObservation{.addr = r.addr, .site = r.site, .was_miss = !hit});
  }
  return out;
}

/// Feeds `obs` to the streamer and its reference; every observation's
/// candidates and the running issued() must agree. With `reset_at` below
/// obs.size(), both are reset before that observation. Returns the total
/// candidate count.
std::uint64_t expect_stream_matches(const StreamConfig& config,
                                    const std::vector<PrefetchObservation>& obs,
                                    std::size_t reset_at = ~std::size_t{0}) {
  StreamPrefetcher engine(config);
  ReferenceStreamPrefetcher reference(config);
  std::vector<LineAddr> want;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    if (i == reset_at) {
      engine.reset();
      reference.reset();
    }
    LineAddr got[kMaxPrefetchDegree]{};
    const std::uint32_t n = engine.observe_into(obs[i], got);
    want.clear();
    reference.observe(obs[i], want);
    EXPECT_EQ(std::vector<LineAddr>(got, got + n), want) << "observation " << i;
    EXPECT_EQ(engine.issued(), reference.issued()) << "observation " << i;
    if (::testing::Test::HasFailure()) return total;
    total += n;
  }
  return total;
}

TEST(StreamEngineProperty, MatchesStampReference) {
  std::uint64_t candidates = 0;
  for (const std::uint32_t trackers : {1u, 4u, 16u, 64u}) {
    for (std::uint32_t degree = 1; degree <= 4; ++degree) {
      // From fewer walks than trackers (no replacement) to twice as many
      // (constant replacement).
      for (const std::uint32_t walkers :
           {1u, trackers / 2 + 1, trackers, 2 * trackers + 3}) {
        for (const double miss_rate : {1.0, 0.6, 0.2}) {
          SCOPED_TRACE("trackers " + std::to_string(trackers) + " degree " +
                       std::to_string(degree) + " walkers " +
                       std::to_string(walkers) + " miss rate " +
                       std::to_string(miss_rate));
          const std::uint64_t seed =
              trackers * 100000 + degree * 1000 + walkers * 10 +
              static_cast<std::uint64_t>(miss_rate * 5);
          const StreamConfig config{.streams = trackers,
                                    .distance = 1 + degree * 2,
                                    .degree = degree};
          candidates += expect_stream_matches(
              config, random_observations(seed, 3000, walkers, miss_rate));
          ASSERT_FALSE(HasFailure());
        }
      }
    }
  }
  EXPECT_GT(candidates, 10000u) << "streams rarely armed: little is compared";
}

TEST(StreamEngineProperty, ResetMatchesFreshReference) {
  for (const std::uint32_t trackers : {1u, 4u, 16u, 64u}) {
    SCOPED_TRACE("trackers " + std::to_string(trackers));
    const StreamConfig config{.streams = trackers};
    expect_stream_matches(
        config, random_observations(trackers, 4000, trackers + 2, 0.7),
        /*reset_at=*/1500);
    ASSERT_FALSE(HasFailure());
  }
}

TEST(StreamEngineProperty, SmallPagesAndLongWindowsMatch) {
  // 256 B pages hold four lines, so nearly every window is page-clipped;
  // a distance of 12 with degree 4 keeps streams issuing over many steps.
  for (const std::uint32_t page_bytes : {256u, 4096u}) {
    SCOPED_TRACE("page " + std::to_string(page_bytes));
    const StreamConfig config{.streams = 8,
                              .distance = 12,
                              .degree = 4,
                              .page_bytes = page_bytes};
    EXPECT_GT(expect_stream_matches(
                  config, random_observations(page_bytes, 4000, 6, 0.9)),
              0u);
    ASSERT_FALSE(HasFailure());
  }
}

TEST(StrideEngineProperty, MatchesReference) {
  std::uint64_t candidates = 0;
  for (std::uint32_t degree = 1; degree <= 4; ++degree) {
    for (const std::uint32_t walkers : {1u, 7u, 300u}) {
      SCOPED_TRACE("degree " + std::to_string(degree) + " walkers " +
                   std::to_string(walkers));
      const StrideConfig config{.threshold = 1 + degree % 2, .degree = degree};
      StridePrefetcher engine(config);
      ReferenceStridePrefetcher reference(config);
      std::vector<LineAddr> want;
      const auto obs = stride_observations(degree * 31 + walkers, 3000, walkers);
      for (std::size_t i = 0; i < obs.size(); ++i) {
        LineAddr got[kMaxPrefetchDegree]{};
        const std::uint32_t n = engine.observe_into(obs[i], got);
        want.clear();
        reference.observe(obs[i], want);
        ASSERT_EQ(std::vector<LineAddr>(got, got + n), want) << "observation " << i;
        ASSERT_EQ(engine.issued(), reference.issued()) << "observation " << i;
        candidates += n;
      }
    }
  }
  EXPECT_GT(candidates, 1000u);
}

/// Feeds `obs` to CorePrefetchers and the reference pair; each
/// observation's candidates must agree, and the vector overload must append
/// exactly what observe_into wrote. When `reset_at` < obs.size(), both
/// CorePrefetchers are reset before that observation and the reference
/// starts over fresh: a reset must drop every engine's training. Returns the
/// total candidate count.
std::uint64_t expect_pair_matches(const std::vector<PrefetchObservation>& obs,
                                  std::size_t reset_at = ~std::size_t{0}) {
  CorePrefetchers engine(64);
  CorePrefetchers wrapped(64);
  ReferenceCorePrefetchers reference(64);
  std::vector<LineAddr> want;
  std::vector<LineAddr> appended;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    if (i == reset_at) {
      engine.reset();
      wrapped.reset();
      reference = ReferenceCorePrefetchers(64);
    }
    CorePrefetchers::Candidates got{};
    const std::uint32_t n = engine.observe_into(obs[i], got);
    const std::vector<LineAddr> got_lines(got.begin(), got.begin() + n);
    want.clear();
    reference.observe(obs[i], want);
    appended.assign(1, LineAddr{7});  // the overload appends after it
    wrapped.observe(obs[i], appended);
    EXPECT_EQ(got_lines, want) << "observation " << i;
    EXPECT_EQ(std::vector<LineAddr>(appended.begin() + 1, appended.end()),
              got_lines)
        << "observation " << i;
    EXPECT_EQ(engine.stride().issued(), reference.stride().issued());
    EXPECT_EQ(engine.stream().issued(), reference.stream().issued());
    if (::testing::Test::HasFailure()) return total;
    total += n;
  }
  return total;
}

TEST(CorePrefetchersProperty, MatchesReferencePairAndChainOnRandomStreams) {
  std::uint64_t candidates = 0;
  for (const std::uint32_t walkers : {1u, 3u, 12u, 40u}) {
    SCOPED_TRACE("walkers " + std::to_string(walkers));
    candidates +=
        expect_pair_matches(random_observations(walkers, 5000, walkers, 0.6));
    candidates += expect_pair_matches(
        stride_observations(walkers + 100, 5000, walkers));
    candidates += expect_pair_matches(
        stride_observations(walkers + 200, 5000, walkers), /*reset_at=*/2500);
    ASSERT_FALSE(HasFailure());
  }
  EXPECT_GT(candidates, 1000u);
}

TEST(CorePrefetchersProperty, MatchesReferencePairAndChainOnWorkloadStreams) {
  Em3dConfig em3d;
  em3d.nodes = 2000;
  em3d.arity = 8;
  em3d.passes = 1;
  McfConfig mcf;
  mcf.nodes = 1000;
  mcf.arcs = 6000;
  mcf.passes = 2;
  MstConfig mst;
  mst.vertices = 400;
  mst.degree = 8;
  mst.buckets = 32;
  const std::vector<std::pair<std::string, TraceBuffer>> traces = {
      {"em3d", Em3dWorkload(em3d).emit_trace()},
      {"mcf", McfWorkload(mcf).emit_trace()},
      {"mst", MstWorkload(mst).emit_trace()},
  };
  for (const auto& [name, trace] : traces) {
    SCOPED_TRACE(name);
    const auto obs = l2_access_stream(trace);
    ASSERT_GT(obs.size(), 1000u);
    EXPECT_GT(expect_pair_matches(obs), 0u) << "no candidates: nothing compared";
    ASSERT_FALSE(HasFailure());
  }
}

TEST(PrefetchEngineLimits, FullDegreeFillsTheWrapperBuffer) {
  // 1 MB pages and a window as long as the degree: the observation that arms
  // the stream issues all kMaxPrefetchDegree lines at once.
  StreamPrefetcher stream(StreamConfig{.streams = 2,
                                       .distance = kMaxPrefetchDegree,
                                       .degree = kMaxPrefetchDegree,
                                       .page_bytes = 1 << 20});
  LineAddr out[kMaxPrefetchDegree]{};
  const auto miss = [](Addr a) {
    return PrefetchObservation{.addr = a, .was_miss = true};
  };
  EXPECT_EQ(stream.observe_into(miss(0), out), 0u);
  ASSERT_EQ(stream.observe_into(miss(64), out), kMaxPrefetchDegree);
  for (std::uint32_t i = 0; i < kMaxPrefetchDegree; ++i) EXPECT_EQ(out[i], 2 + i);

  StridePrefetcher stride(StrideConfig{.threshold = 1,
                                       .degree = kMaxPrefetchDegree});
  std::uint32_t issued = 0;
  for (Addr a : {Addr{0}, Addr{128}, Addr{256}}) {
    issued +=
        stride.observe_into(PrefetchObservation{.addr = a, .site = 1}, out);
  }
  EXPECT_EQ(issued, kMaxPrefetchDegree);
}

TEST(PrefetchEngineLimitsDeathTest, RejectsDegreeAboveTheBuffer) {
  EXPECT_DEATH(StreamPrefetcher(StreamConfig{.degree = kMaxPrefetchDegree + 1}),
               "degree exceeds the candidate buffer");
  EXPECT_DEATH(StridePrefetcher(StrideConfig{.degree = kMaxPrefetchDegree + 1}),
               "degree exceeds the candidate buffer");
}

}  // namespace
}  // namespace spf
