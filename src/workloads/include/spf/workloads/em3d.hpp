// EM3D (Olden suite) — electromagnetic wave propagation on a bipartite
// graph. The paper's Figure 1(a) hotspot:
//
//   for (curr_node = nodelist; curr_node; curr_node = curr_node->next)  // outer
//     for (j = 0; j < curr_node->from_count; ++j)                       // inner
//       ... other_node->from_length ...   /* delinquent load */
//       ... other_node->from_values ...   /* delinquent load */
//
// Structure: E nodes and H nodes; each node depends on `arity` random nodes
// of the other kind. Per outer iteration the loop walks the node-list spine
// (pointer chase), streams through the node's dependency-pointer and
// coefficient arrays (sequential), and dereferences each dependency (the
// delinquent loads — `arity` irregular accesses across the whole node array).
//
// CALR is near zero: one multiply-accumulate per dependency load.
#pragma once

#include <cstdint>
#include <vector>

#include "spf/workloads/workload.hpp"

namespace spf {

struct Em3dConfig {
  /// Total nodes (split into E and H halves).
  std::uint32_t nodes = 20000;
  /// Dependencies per node (paper Table II: arity 128).
  std::uint32_t arity = 64;
  /// compute_nodes() invocations (each is one outer hot loop call).
  std::uint32_t passes = 2;
  /// ALU cycles per dependency (low => low CALR, the SP target regime).
  std::uint32_t compute_cycles_per_dep = 1;
  std::uint64_t seed = 42;
  /// Place nodes in memory in shuffled order relative to list order, the way
  /// repeated malloc/free churn scatters a real linked structure.
  bool shuffle_placement = true;
  /// When nonzero, every pass except the LAST walks only
  /// min(prelude_arity, arity) dependencies per node — a low-pressure prelude
  /// (think: initialization sweeps that touch a subset of the graph) followed
  /// by the full-arity pressured phase. This is the late-tight-phase fixture:
  /// the whole-run Set-Affinity bound is dragged down by the hot final pass,
  /// while per-phase capping can relax the quiet prelude. 0 (default) keeps
  /// every pass at full arity, emitting exactly the classic trace.
  std::uint32_t prelude_arity = 0;

  /// Paper Table II input: "4*10^5 nodes, arity 128".
  static Em3dConfig paper_scale() {
    Em3dConfig c;
    c.nodes = 400000;
    c.arity = 128;
    c.passes = 1;
    return c;
  }
};

/// Load sites in the hot loop (feed the IP-stride prefetcher).
enum Em3dSite : std::uint8_t {
  kEm3dNode = 0,       // spine: node struct via ->next
  kEm3dFromPtrs = 1,   // dependency pointer array (sequential)
  kEm3dFromValue = 2,  // *from_values[j] (delinquent, irregular)
  kEm3dCoeffs = 3,     // coefficient array (sequential)
  kEm3dValueWrite = 4, // node->value store
};

class Em3dWorkload final : public Workload {
 public:
  /// Throws std::invalid_argument when `config` has fewer than four or an
  /// odd number of nodes, or a zero arity or pass count.
  explicit Em3dWorkload(const Em3dConfig& config);

  [[nodiscard]] std::string name() const override { return "em3d"; }
  [[nodiscard]] TraceBuffer emit_trace() const override;
  [[nodiscard]] std::uint32_t outer_iterations() const override {
    return config_.nodes * config_.passes;
  }
  [[nodiscard]] std::vector<std::uint32_t> invocation_starts() const override;

  [[nodiscard]] const Em3dConfig& config() const noexcept { return config_; }
  /// Virtual address of node i's struct (placement order, not list order).
  [[nodiscard]] Addr node_addr(std::uint32_t list_index) const;
  /// Dependency targets of node i (list indices into the other half).
  [[nodiscard]] const std::uint32_t* targets_of(std::uint32_t list_index) const;
  /// Base of node i's from_values pointer row / coefficient row.
  [[nodiscard]] Addr ptr_row_addr(std::uint32_t list_index) const;
  [[nodiscard]] Addr coeff_row_addr(std::uint32_t list_index) const;

 private:
  Em3dConfig config_;
  Addr nodes_base_ = 0;
  Addr from_ptrs_base_ = 0;
  Addr coeffs_base_ = 0;
  /// placement_[i] = memory slot of the node at list position i.
  std::vector<std::uint32_t> placement_;
  /// Flattened targets: nodes * arity list indices.
  std::vector<std::uint32_t> targets_;
};

}  // namespace spf
