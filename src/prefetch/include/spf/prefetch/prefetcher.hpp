// Hardware prefetcher interface.
//
// The paper's testbed (Core 2) has two kinds of hardware prefetchers per die:
// the DPL (Data Prefetch Logic, an IP/stride prefetcher) and the streamer
// (adjacent/sequential line prefetcher). The paper's pollution case 3 is
// "a prematurely prefetched block displaces data just fetched by hardware
// prefetchers" — so the simulator needs hw prefetchers that actually fill
// lines tagged FillOrigin::kHardware.
//
// Prefetchers observe the demand access stream and emit candidate lines; the
// simulator filters candidates against cache contents and MSHRs and issues
// the survivors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spf/mem/types.hpp"

namespace spf {

/// A static load site identifier (stands in for the program counter of the
/// load instruction in a real machine). Workload trace emitters assign one id
/// per static load in the hot loop.
using SiteId = std::uint32_t;

/// Largest `degree` an engine accepts: the engines write at most `degree`
/// candidates per observation, and their std::vector observe() wrappers
/// collect them in a stack buffer of this many lines.
inline constexpr std::uint32_t kMaxPrefetchDegree = 64;

/// One observed demand access, as seen by a prefetcher.
struct PrefetchObservation {
  Addr addr = 0;
  SiteId site = 0;
  /// Whether the access missed in the cache level this prefetcher watches.
  bool was_miss = false;
};

class HwPrefetcher {
 public:
  virtual ~HwPrefetcher() = default;

  /// Observe one access and append any prefetch candidate lines to `out`.
  /// Candidates may duplicate cached lines; the caller deduplicates.
  virtual void observe(const PrefetchObservation& obs,
                       std::vector<LineAddr>& out) = 0;

  virtual void reset() = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace spf
