// Vocabulary shared by the hardware prefetcher engines.
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
// the survivors. Each engine (StridePrefetcher, StreamPrefetcher) is a plain
// class with one observe_into() that writes an observation's candidates into
// a caller's buffer; CorePrefetchers pairs them per core.
#pragma once

#include <cstdint>

#include "spf/mem/types.hpp"

namespace spf {

/// A static load site identifier (stands in for the program counter of the
/// load instruction in a real machine). Workload trace emitters assign one id
/// per static load in the hot loop.
using SiteId = std::uint32_t;

/// Largest `degree` an engine accepts: the engines write at most `degree`
/// candidates per observation, so a buffer of this many lines holds any
/// observation's candidates.
inline constexpr std::uint32_t kMaxPrefetchDegree = 64;

/// One observed demand access, as seen by a prefetcher.
struct PrefetchObservation {
  Addr addr = 0;
  SiteId site = 0;
  /// Whether the access missed in the cache level this prefetcher watches.
  bool was_miss = false;
};

}  // namespace spf
