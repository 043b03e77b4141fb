// Replacement policies for the set-associative cache model.
//
// The paper's testbed L2 is (pseudo-)LRU; the ablation bench
// `ablate_replacement` checks that the Set-Affinity-derived distance bound is
// robust across policies, so we provide LRU, tree-PLRU, FIFO, Random and
// SRRIP.
//
// Dispatch is *devirtualized*: each policy is a value-semantic struct with
// contiguous per-set state, and `ReplacementState` holds them in a
// `std::variant` dispatched with `std::visit`. The cache's hot path
// (on_hit/on_fill/victim on every access) pays one switch on the variant
// index instead of a vtable load through a heap pointer, the state lives
// inline in the Cache object, and Cache gains honest value move semantics
// for free. The algorithms themselves are unchanged — each policy must
// produce the same victim sequence as the previous virtual implementation.
//
// A policy sees way-level events for one cache (all sets) and answers victim
// queries. State is owned by the policy, indexed by (set, way).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "spf/common/assert.hpp"
#include "spf/common/min_stamp.hpp"
#include "spf/common/rng.hpp"
#include "spf/mem/types.hpp"

namespace spf {

enum class ReplacementKind : std::uint8_t {
  kLru,
  kTreePlru,
  kFifo,
  kRandom,
  kSrrip,
};

[[nodiscard]] const char* to_string(ReplacementKind k) noexcept;
/// Parses "lru" / "plru" / "fifo" / "random" / "srrip" (case-sensitive).
[[nodiscard]] ReplacementKind replacement_from_string(const std::string& s);

/// True LRU via per-line monotonic reference stamps; victim is the minimum
/// stamp. Linear scan over <= 16 ways is cheaper than maintaining a list.
class LruState {
 public:
  LruState(std::uint64_t num_sets, std::uint32_t ways)
      : ways_(ways), stamps_(num_sets * ways, 0) {}

  /// As-if-freshly-constructed, reusing stamp storage capacity.
  void reset(std::uint64_t num_sets, std::uint32_t ways) {
    ways_ = ways;
    clock_ = 0;
    stamps_.assign(num_sets * ways, 0);
  }

  void on_hit(std::uint64_t set, std::uint32_t way) {
    stamps_[set * ways_ + way] = ++clock_;
  }
  void on_fill(std::uint64_t set, std::uint32_t way) {
    stamps_[set * ways_ + way] = ++clock_;
  }
  [[nodiscard]] std::uint32_t victim(std::uint64_t set) {
    return min_stamp_index(&stamps_[set * ways_], ways_);
  }
  [[nodiscard]] ReplacementKind kind() const noexcept {
    return ReplacementKind::kLru;
  }

 private:
  std::uint32_t ways_;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> stamps_;
};

/// Tree pseudo-LRU: one bit per internal node of a binary tree over the ways.
/// This is what real L2s (including Core 2's) approximate LRU with.
class TreePlruState {
 public:
  TreePlruState(std::uint64_t num_sets, std::uint32_t ways)
      : ways_(ways), bits_(num_sets * (ways > 1 ? ways - 1 : 1), 0) {
    SPF_ASSERT((ways & (ways - 1)) == 0, "tree-PLRU needs power-of-two ways");
  }

  void reset(std::uint64_t num_sets, std::uint32_t ways) {
    SPF_ASSERT((ways & (ways - 1)) == 0, "tree-PLRU needs power-of-two ways");
    ways_ = ways;
    bits_.assign(num_sets * (ways > 1 ? ways - 1 : 1), 0);
  }

  void on_hit(std::uint64_t set, std::uint32_t way) { touch(set, way); }
  void on_fill(std::uint64_t set, std::uint32_t way) { touch(set, way); }

  [[nodiscard]] std::uint32_t victim(std::uint64_t set) {
    if (ways_ == 1) return 0;
    std::uint8_t* tree = &bits_[set * (ways_ - 1)];
    std::uint32_t node = 0;
    // Follow the bits toward the pseudo-least-recently-used leaf: bit==0
    // means "left subtree is older".
    std::uint32_t leaf_base = 0;
    std::uint32_t span = ways_;
    while (span > 1) {
      const bool go_right = tree[node] != 0;
      span /= 2;
      if (go_right) leaf_base += span;
      node = 2 * node + (go_right ? 2 : 1);
    }
    return leaf_base;
  }
  [[nodiscard]] ReplacementKind kind() const noexcept {
    return ReplacementKind::kTreePlru;
  }

 private:
  void touch(std::uint64_t set, std::uint32_t way) {
    if (ways_ == 1) return;
    std::uint8_t* tree = &bits_[set * (ways_ - 1)];
    std::uint32_t node = 0;
    std::uint32_t leaf_base = 0;
    std::uint32_t span = ways_;
    while (span > 1) {
      span /= 2;
      const bool in_right = way >= leaf_base + span;
      // Point the bit away from the touched way.
      tree[node] = in_right ? 0 : 1;
      if (in_right) leaf_base += span;
      node = 2 * node + (in_right ? 2 : 1);
    }
  }

  std::uint32_t ways_;
  std::vector<std::uint8_t> bits_;
};

/// FIFO: victim is the oldest *fill*; hits do not refresh.
class FifoState {
 public:
  FifoState(std::uint64_t num_sets, std::uint32_t ways)
      : ways_(ways), stamps_(num_sets * ways, 0) {}

  void reset(std::uint64_t num_sets, std::uint32_t ways) {
    ways_ = ways;
    clock_ = 0;
    stamps_.assign(num_sets * ways, 0);
  }

  void on_hit(std::uint64_t, std::uint32_t) {}
  void on_fill(std::uint64_t set, std::uint32_t way) {
    stamps_[set * ways_ + way] = ++clock_;
  }
  [[nodiscard]] std::uint32_t victim(std::uint64_t set) {
    return min_stamp_index(&stamps_[set * ways_], ways_);
  }
  [[nodiscard]] ReplacementKind kind() const noexcept {
    return ReplacementKind::kFifo;
  }

 private:
  std::uint32_t ways_;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> stamps_;
};

class RandomState {
 public:
  RandomState(std::uint32_t ways, std::uint64_t seed)
      : ways_(ways), rng_(seed) {}

  void reset(std::uint32_t ways, std::uint64_t seed) {
    ways_ = ways;
    rng_ = Xoshiro256(seed);
  }

  void on_hit(std::uint64_t, std::uint32_t) {}
  void on_fill(std::uint64_t, std::uint32_t) {}
  [[nodiscard]] std::uint32_t victim(std::uint64_t) {
    return static_cast<std::uint32_t>(rng_.below(ways_));
  }
  [[nodiscard]] ReplacementKind kind() const noexcept {
    return ReplacementKind::kRandom;
  }

 private:
  std::uint32_t ways_;
  Xoshiro256 rng_;
};

/// SRRIP (Jaleel et al., ISCA'10) with 2-bit re-reference prediction values.
/// Fills insert at RRPV=2 (long re-reference), hits promote to 0, victims are
/// lines at RRPV=3 (aging the whole set until one exists).
class SrripState {
 public:
  SrripState(std::uint64_t num_sets, std::uint32_t ways)
      : ways_(ways), rrpv_(num_sets * ways, kMax) {}

  void reset(std::uint64_t num_sets, std::uint32_t ways) {
    ways_ = ways;
    rrpv_.assign(num_sets * ways, kMax);
  }

  void on_hit(std::uint64_t set, std::uint32_t way) {
    rrpv_[set * ways_ + way] = 0;
  }
  void on_fill(std::uint64_t set, std::uint32_t way) {
    rrpv_[set * ways_ + way] = kLong;
  }
  [[nodiscard]] std::uint32_t victim(std::uint64_t set) {
    std::uint8_t* row = &rrpv_[set * ways_];
    for (;;) {
      for (std::uint32_t w = 0; w < ways_; ++w) {
        if (row[w] == kMax) return w;
      }
      for (std::uint32_t w = 0; w < ways_; ++w) ++row[w];
    }
  }
  [[nodiscard]] ReplacementKind kind() const noexcept {
    return ReplacementKind::kSrrip;
  }

 private:
  static constexpr std::uint8_t kMax = 3;
  static constexpr std::uint8_t kLong = 2;

  std::uint32_t ways_;
  std::vector<std::uint8_t> rrpv_;
};

/// Tagged-union dispatcher over the concrete policies. Copyable and movable;
/// `seed` feeds the Random policy's generator (ignored by others), matching
/// the old `make_replacement` factory.
///
/// Dispatch is a hand-rolled switch on the variant index rather than
/// std::visit: libstdc++'s visit goes through a function-pointer table, which
/// blocks inlining of the tiny policy bodies on the per-access hot path. The
/// get_if deref is safe because each case is only reached for its own index.
/// The variant alternative order matches the ReplacementKind enumerator
/// order (kind() relies on it).
class ReplacementState {
 public:
  ReplacementState(ReplacementKind kind, std::uint64_t num_sets,
                   std::uint32_t ways, std::uint64_t seed = 0x5eed);

  /// As-if-freshly-constructed for the given shape. When `kind` matches the
  /// current alternative the per-policy reset reuses its state vector's
  /// capacity; a kind change re-emplaces the variant (allocates).
  void reset_to(ReplacementKind kind, std::uint64_t num_sets,
                std::uint32_t ways, std::uint64_t seed = 0x5eed) {
    if (kind != this->kind()) {
      state_ = make(kind, num_sets, ways, seed);
      return;
    }
    switch (state_.index()) {
      case 0: std::get_if<0>(&state_)->reset(num_sets, ways); return;
      case 1: std::get_if<1>(&state_)->reset(num_sets, ways); return;
      case 2: std::get_if<2>(&state_)->reset(num_sets, ways); return;
      case 3: std::get_if<3>(&state_)->reset(ways, seed); return;
      case 4: std::get_if<4>(&state_)->reset(num_sets, ways); return;
    }
  }

  void on_hit(std::uint64_t set, std::uint32_t way) {
    switch (state_.index()) {
      case 0: std::get_if<0>(&state_)->on_hit(set, way); return;
      case 1: std::get_if<1>(&state_)->on_hit(set, way); return;
      case 2: std::get_if<2>(&state_)->on_hit(set, way); return;
      case 3: std::get_if<3>(&state_)->on_hit(set, way); return;
      case 4: std::get_if<4>(&state_)->on_hit(set, way); return;
    }
  }
  void on_fill(std::uint64_t set, std::uint32_t way) {
    switch (state_.index()) {
      case 0: std::get_if<0>(&state_)->on_fill(set, way); return;
      case 1: std::get_if<1>(&state_)->on_fill(set, way); return;
      case 2: std::get_if<2>(&state_)->on_fill(set, way); return;
      case 3: std::get_if<3>(&state_)->on_fill(set, way); return;
      case 4: std::get_if<4>(&state_)->on_fill(set, way); return;
    }
  }
  [[nodiscard]] std::uint32_t victim(std::uint64_t set) {
    switch (state_.index()) {
      case 0: return std::get_if<0>(&state_)->victim(set);
      case 1: return std::get_if<1>(&state_)->victim(set);
      case 2: return std::get_if<2>(&state_)->victim(set);
      case 3: return std::get_if<3>(&state_)->victim(set);
      default: return std::get_if<4>(&state_)->victim(set);
    }
  }
  [[nodiscard]] ReplacementKind kind() const noexcept {
    return static_cast<ReplacementKind>(state_.index());
  }

 private:
  static std::variant<LruState, TreePlruState, FifoState, RandomState,
                      SrripState>
  make(ReplacementKind kind, std::uint64_t num_sets, std::uint32_t ways,
       std::uint64_t seed);

  std::variant<LruState, TreePlruState, FifoState, RandomState, SrripState>
      state_;
};

static_assert(static_cast<std::size_t>(ReplacementKind::kLru) == 0 &&
                  static_cast<std::size_t>(ReplacementKind::kTreePlru) == 1 &&
                  static_cast<std::size_t>(ReplacementKind::kFifo) == 2 &&
                  static_cast<std::size_t>(ReplacementKind::kRandom) == 3 &&
                  static_cast<std::size_t>(ReplacementKind::kSrrip) == 4,
              "variant alternative order must match ReplacementKind");

}  // namespace spf
