// google-benchmark microbenchmarks of the simulator substrate's hot paths:
// cache access/fill, MSHR operations, prefetcher observation, Set Affinity
// streaming, helper-trace synthesis, and end-to-end simulation throughput.
#include <benchmark/benchmark.h>

#include "spf/cache/cache.hpp"
#include "spf/common/rng.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/mshr/mshr.hpp"
#include "spf/prefetch/core_prefetchers.hpp"
#include "spf/profile/set_affinity.hpp"
#include "spf/sim/simulator.hpp"

namespace {

using namespace spf;

void BM_CacheAccessHit(benchmark::State& state) {
  Cache cache(CacheGeometry(1 << 20, 16, 64), ReplacementKind::kLru);
  for (LineAddr l = 0; l < 1024; ++l) cache.fill(l, FillOrigin::kDemand, 0, 0);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(1024), AccessKind::kRead, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheFillEvict(benchmark::State& state) {
  const auto policy = static_cast<ReplacementKind>(state.range(0));
  Cache cache(CacheGeometry(1 << 20, 16, 64), policy);
  LineAddr next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.fill(next++, FillOrigin::kDemand, 0, 0));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(to_string(policy));
}
BENCHMARK(BM_CacheFillEvict)
    ->Arg(static_cast<int>(ReplacementKind::kLru))
    ->Arg(static_cast<int>(ReplacementKind::kTreePlru))
    ->Arg(static_cast<int>(ReplacementKind::kFifo))
    ->Arg(static_cast<int>(ReplacementKind::kSrrip));

void BM_MshrAllocateDrain(benchmark::State& state) {
  MshrFile mshr(16);
  Cycle now = 0;
  for (auto _ : state) {
    for (LineAddr l = 0; l < 16; ++l) {
      mshr.allocate(now * 100 + l, now, now + 300, FillOrigin::kDemand, 0);
    }
    benchmark::DoNotOptimize(mshr.drain_completed(now + 300));
    ++now;
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_MshrAllocateDrain);

void BM_CorePrefetchersObserve(benchmark::State& state) {
  CorePrefetchers prefetchers(64);
  CorePrefetchers::Candidates out{};
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prefetchers.observe_into(
        PrefetchObservation{.addr = addr, .site = 1, .was_miss = true}, out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    addr += 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorePrefetchersObserve);

void BM_SetAffinityObserve(benchmark::State& state) {
  // A set stops counting once it saturates, so the analyzer is finished
  // every window: each window is one fresh invocation, as the
  // per-invocation analysis runs it, and the loop keeps counting blocks.
  constexpr std::uint32_t kWindow = 1u << 14;
  SetAffinityAnalyzer analyzer(CacheGeometry(1 << 20, 16, 64));
  Xoshiro256 rng(2);
  std::uint32_t i = 0;
  for (auto _ : state) {
    analyzer.observe(rng.below(1u << 26), i / 64);
    if (++i == kWindow) {
      benchmark::DoNotOptimize(analyzer.finish());
      i = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetAffinityObserve);

TraceBuffer make_micro_trace(std::uint32_t iters) {
  TraceBuffer t;
  Xoshiro256 rng(3);
  for (std::uint32_t i = 0; i < iters; ++i) {
    t.emit(static_cast<Addr>(i) * 64, i, AccessKind::kRead, 0, kFlagSpine, 1);
    for (int j = 0; j < 8; ++j) {
      t.emit(rng.below(1u << 24), i, AccessKind::kRead, 1, kFlagDelinquent, 1);
    }
  }
  return t;
}

void BM_HelperTraceSynthesis(benchmark::State& state) {
  const TraceBuffer trace = make_micro_trace(20000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_helper_trace(trace, SpParams{.a_ski = 16, .a_pre = 16}));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_HelperTraceSynthesis);

void BM_SimulatorThroughputSingleCore(benchmark::State& state) {
  const TraceBuffer trace = make_micro_trace(20000);
  SimConfig cfg;
  cfg.l2 = CacheGeometry(1 << 20, 16, 64);
  for (auto _ : state) {
    CmpSimulator sim(cfg);
    benchmark::DoNotOptimize(sim.run({CoreStream{.trace = &trace}}));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_SimulatorThroughputSingleCore);

void BM_SimulatorThroughputWithHelper(benchmark::State& state) {
  const TraceBuffer trace = make_micro_trace(20000);
  const TraceBuffer helper =
      make_helper_trace(trace, SpParams{.a_ski = 16, .a_pre = 16});
  SimConfig cfg;
  cfg.l2 = CacheGeometry(1 << 20, 16, 64);
  for (auto _ : state) {
    CmpSimulator sim(cfg);
    benchmark::DoNotOptimize(sim.run({
        CoreStream{.trace = &trace},
        CoreStream{.trace = &helper,
                   .origin = FillOrigin::kHelper,
                   .sync = RoundSync{.leader = 0, .round_iters = 32}},
    }));
  }
  state.SetItemsProcessed(state.iterations() * (trace.size() + helper.size()));
}
BENCHMARK(BM_SimulatorThroughputWithHelper);

}  // namespace

BENCHMARK_MAIN();
