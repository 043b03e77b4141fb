// Set Affinity analysis — the paper's central profiling quantity.
//
// Definition 1 (paper §III.B): "Given a cache set address of an accessed
// block, its Set Affinity is the iteration count of outer hot loop where the
// sequential accessed blocks mapped in the specific cache set exceed its
// capacity."
//
// The analyzer implements the paper's Figure 3 pseudo-code: stream the data
// accesses of a hot loop; per cache set, count *distinct* blocks; when the
// count reaches the set's associativity, record the current outer-loop
// iteration count as that set's Set Affinity. One SA value per set, recorded
// the first time the set saturates (Table II's SA(L, Sx) ranges).
//
// A set never holds more than `ways` distinct blocks — it records and stops
// when the count reaches the associativity — so the analyzer keeps one flat
// row of `ways` block slots per set plus a count, instead of a hash set per
// set. A touched-set list lets finish() reset only the rows the stream
// reached, which keeps a reused analyzer cheap across many short
// invocations.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "spf/common/stats.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/trace/trace.hpp"

namespace spf {

struct SetAffinityResult {
  /// Sets that saturated, with their Set Affinity in outer-loop iterations.
  std::unordered_map<std::uint64_t, std::uint32_t> per_set;
  /// The per_set values, in the order the sets saturated.
  std::vector<std::uint32_t> samples;
  /// Distinct sets touched by the stream (saturated or not).
  std::uint64_t touched_sets = 0;
  std::uint64_t accesses = 0;
  std::uint32_t outer_iterations = 0;

  [[nodiscard]] bool any_saturated() const noexcept { return !samples.empty(); }
  /// Range endpoints as Table II reports them.
  [[nodiscard]] std::uint32_t min_sa() const;
  [[nodiscard]] std::uint32_t max_sa() const;
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::string to_string() const;
};

class SetAffinityAnalyzer {
 public:
  explicit SetAffinityAnalyzer(const CacheGeometry& geometry);

  /// Stream one access belonging to outer-loop iteration `outer_iter`.
  /// Iterations are 0-based; the recorded SA is `outer_iter + 1` ("iteration
  /// count", per the paper). Returns the SA sample this access recorded, or 0
  /// when it recorded none (SA is always >= 1) — the phase-incremental
  /// analyzer uses the return to attribute samples to iteration windows;
  /// whole-run callers ignore it.
  std::uint32_t observe(Addr addr, std::uint32_t outer_iter);

  /// Finalize and return the result. The analyzer may be reused afterwards
  /// (state is reset).
  SetAffinityResult finish();

  /// Convenience: analyze a whole trace (demand records only — prefetch-kind
  /// records are the helper's own traffic and are included, since the paper's
  /// "Set Affinity with Helper Thread" counts every data access entity).
  static SetAffinityResult analyze(const TraceBuffer& trace,
                                   const CacheGeometry& geometry);

 private:
  struct SetState {
    /// Distinct blocks seen so far (the first `count` slots of the set's
    /// row in blocks_).
    std::uint32_t count = 0;
    bool saturated = false;
    bool touched = false;
  };

  CacheGeometry geometry_;
  std::vector<SetState> sets_;        // one per cache set
  std::vector<LineAddr> blocks_;      // num_sets * ways block slots
  std::vector<std::uint64_t> touched_;  // sets observed since the last finish()
  SetAffinityResult result_;
};

}  // namespace spf
