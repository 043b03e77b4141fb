// Devirtualized per-core prefetcher pair for the simulator hot path.
//
// Semantically identical to PrefetcherChain::core2_default (DPL stride and
// the streamer watch the same access; the candidates of one observation are
// sorted and deduplicated), but the two engines are direct members: no
// unique_ptr indirection and no virtual dispatch per access, so
// `observe_into` inlines into the simulator's access loop. Both configs are
// fixed, so one observation yields at most kMaxCandidates lines, collected
// in a caller's fixed buffer and sorted in place. PrefetcherChain stays as
// the generic composition surface for ablations and tests; this type is the
// fixed Core 2 arrangement only.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "spf/common/assert.hpp"
#include "spf/prefetch/stream.hpp"
#include "spf/prefetch/stride.hpp"

namespace spf {

class CorePrefetchers {
 public:
  /// Most candidates one observation yields: each engine writes at most its
  /// degree.
  static constexpr std::uint32_t kMaxCandidates =
      StrideConfig{}.degree + StreamConfig{}.degree;
  using Candidates = std::array<LineAddr, kMaxCandidates>;

  explicit CorePrefetchers(std::uint32_t line_bytes)
      : stride_(stride_config(line_bytes)), stream_(stream_config(line_bytes)) {}

  /// Observe one access and write this observation's candidate lines to
  /// `out`, ascending and without repeats; returns how many. These are
  /// exactly the lines PrefetcherChain::core2_default appends for it.
  /// Forced inline: the simulator runs it on every L2-visible access.
  SPF_ALWAYS_INLINE std::uint32_t observe_into(const PrefetchObservation& obs,
                                               Candidates& out) {
    std::uint32_t n = stride_.observe_into(obs, out.data());
    n += stream_.observe_into(obs, out.data() + n);
    return n > 1 ? sort_unique(out.data(), n) : n;
  }

  /// observe_into, appended to `out`.
  void observe(const PrefetchObservation& obs, std::vector<LineAddr>& out) {
    Candidates buf{};
    const std::uint32_t n = observe_into(obs, buf);
    out.insert(out.end(), buf.begin(), buf.begin() + n);
  }

  void reset() {
    stride_.reset();
    stream_.reset();
  }

  [[nodiscard]] const StridePrefetcher& stride() const noexcept { return stride_; }
  [[nodiscard]] const StreamPrefetcher& stream() const noexcept { return stream_; }

 private:
  static StrideConfig stride_config(std::uint32_t line_bytes) {
    StrideConfig config;
    config.line_bytes = line_bytes;
    return config;
  }
  static StreamConfig stream_config(std::uint32_t line_bytes) {
    StreamConfig config;
    config.line_bytes = line_bytes;
    return config;
  }

  /// Sorts lines[0, n) ascending and drops repeats; returns the new count.
  /// An insertion sort: n is at most kMaxCandidates.
  static std::uint32_t sort_unique(LineAddr* lines, std::uint32_t n) noexcept {
    for (std::uint32_t i = 1; i < n; ++i) {
      const LineAddr v = lines[i];
      std::uint32_t j = i;
      for (; j > 0 && lines[j - 1] > v; --j) lines[j] = lines[j - 1];
      lines[j] = v;
    }
    std::uint32_t kept = 1;
    for (std::uint32_t i = 1; i < n; ++i) {
      if (lines[i] != lines[kept - 1]) lines[kept++] = lines[i];
    }
    return kept;
  }

  StridePrefetcher stride_;
  StreamPrefetcher stream_;
};

}  // namespace spf
