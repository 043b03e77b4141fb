#include "spf/workloads/em3d.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "spf/common/rng.hpp"
#include "spf/workloads/vheap.hpp"

namespace spf {
namespace {

/// Olden's em3d node: value, next, from_count, from_values, coeffs, padding.
constexpr std::uint64_t kNodeBytes = 64;
constexpr std::uint64_t kPtrBytes = 8;
constexpr std::uint64_t kCoeffBytes = 8;
constexpr std::uint64_t kLineBytes = 64;

}  // namespace

Em3dWorkload::Em3dWorkload(const Em3dConfig& config) : config_(config) {
  if (config.nodes < 4) {
    throw std::invalid_argument("em3d needs at least four nodes");
  }
  if (config.nodes % 2 != 0) {
    throw std::invalid_argument("em3d nodes split into two equal halves");
  }
  if (config.arity == 0) throw std::invalid_argument("arity must be positive");
  if (config.passes == 0) throw std::invalid_argument("need at least one pass");

  Xoshiro256 rng(config.seed);
  const std::uint32_t n = config.nodes;
  const std::uint32_t half = n / 2;

  // Memory placement: identity or a deterministic shuffle of node slots.
  placement_.resize(n);
  std::iota(placement_.begin(), placement_.end(), 0u);
  if (config.shuffle_placement) {
    for (std::uint32_t i = n - 1; i > 0; --i) {
      std::swap(placement_[i],
                placement_[static_cast<std::uint32_t>(rng.below(i + 1))]);
    }
  }

  // Bipartite dependencies: list positions [0, half) are E nodes depending on
  // H nodes [half, n), and vice versa.
  targets_.resize(static_cast<std::size_t>(n) * config.arity);
  for (std::uint32_t i = 0; i < n; ++i) {
    const bool is_e = i < half;
    for (std::uint32_t j = 0; j < config.arity; ++j) {
      const auto pick = static_cast<std::uint32_t>(rng.below(half));
      targets_[static_cast<std::size_t>(i) * config.arity + j] =
          is_e ? half + pick : pick;
    }
  }

  VirtualHeap heap;
  nodes_base_ = heap.allocate(static_cast<std::uint64_t>(n) * kNodeBytes, kLineBytes);
  from_ptrs_base_ = heap.allocate(
      static_cast<std::uint64_t>(n) * config.arity * kPtrBytes, kLineBytes);
  coeffs_base_ = heap.allocate(
      static_cast<std::uint64_t>(n) * config.arity * kCoeffBytes, kLineBytes);
}

Addr Em3dWorkload::node_addr(std::uint32_t list_index) const {
  SPF_DEBUG_ASSERT(list_index < config_.nodes, "node index out of range");
  return nodes_base_ + static_cast<Addr>(placement_[list_index]) * kNodeBytes;
}

const std::uint32_t* Em3dWorkload::targets_of(std::uint32_t list_index) const {
  SPF_DEBUG_ASSERT(list_index < config_.nodes, "node index out of range");
  return &targets_[static_cast<std::size_t>(list_index) * config_.arity];
}

Addr Em3dWorkload::ptr_row_addr(std::uint32_t list_index) const {
  SPF_DEBUG_ASSERT(list_index < config_.nodes, "node index out of range");
  return from_ptrs_base_ +
         static_cast<Addr>(list_index) * config_.arity * kPtrBytes;
}

Addr Em3dWorkload::coeff_row_addr(std::uint32_t list_index) const {
  SPF_DEBUG_ASSERT(list_index < config_.nodes, "node index out of range");
  return coeffs_base_ +
         static_cast<Addr>(list_index) * config_.arity * kCoeffBytes;
}

TraceBuffer Em3dWorkload::emit_trace() const {
  TraceBuffer trace;
  const std::uint32_t n = config_.nodes;
  const std::uint32_t arity = config_.arity;
  const std::uint64_t ptr_row = static_cast<std::uint64_t>(arity) * kPtrBytes;
  const std::uint64_t coeff_row = static_cast<std::uint64_t>(arity) * kCoeffBytes;
  // Records per iteration: spine + per-line array touches + arity dereferences
  // + the value store. An upper bound also for prelude passes, which walk
  // fewer dependencies per node.
  const std::uint64_t per_iter = 2 + (ptr_row + kLineBytes - 1) / kLineBytes +
                                 (coeff_row + kLineBytes - 1) / kLineBytes + arity;
  trace.reserve(static_cast<std::size_t>(per_iter) * n * config_.passes);

  for (std::uint32_t pass = 0; pass < config_.passes; ++pass) {
    // Late-tight-phase fixture: non-final passes walk a dependency prefix.
    const bool prelude =
        config_.prelude_arity != 0 && pass + 1 < config_.passes;
    const std::uint32_t pass_arity =
        prelude ? std::min(config_.prelude_arity, arity) : arity;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t t = pass * n + i;
      // Spine: follow nodelist to this node and read from_count/from_values.
      trace.emit(node_addr(i), t, AccessKind::kRead, kEm3dNode, kFlagSpine);

      const Addr ptr_base = from_ptrs_base_ + static_cast<Addr>(i) * ptr_row;
      const Addr coeff_base = coeffs_base_ + static_cast<Addr>(i) * coeff_row;
      const std::uint32_t* deps = targets_of(i);
      for (std::uint32_t j = 0; j < pass_arity; ++j) {
        // The pointer and coefficient arrays are read sequentially; one trace
        // record per touched line models their perfect spatial locality.
        const Addr ptr_addr = ptr_base + static_cast<Addr>(j) * kPtrBytes;
        if (j == 0 || (ptr_addr % kLineBytes) < kPtrBytes) {
          trace.emit(ptr_addr, t, AccessKind::kRead, kEm3dFromPtrs);
        }
        const Addr coeff_addr = coeff_base + static_cast<Addr>(j) * kCoeffBytes;
        if (j == 0 || (coeff_addr % kLineBytes) < kCoeffBytes) {
          trace.emit(coeff_addr, t, AccessKind::kRead, kEm3dCoeffs);
        }
        // The delinquent load: *from_values[j], an irregular reference into
        // the other half's node array.
        trace.emit(node_addr(deps[j]), t, AccessKind::kRead, kEm3dFromValue,
                   kFlagDelinquent, config_.compute_cycles_per_dep);
      }
      trace.emit(node_addr(i), t, AccessKind::kWrite, kEm3dValueWrite);
    }
  }
  return trace;
}

std::vector<std::uint32_t> Em3dWorkload::invocation_starts() const {
  std::vector<std::uint32_t> starts;
  starts.reserve(config_.passes);
  for (std::uint32_t p = 0; p < config_.passes; ++p) {
    starts.push_back(p * config_.nodes);
  }
  return starts;
}

}  // namespace spf
