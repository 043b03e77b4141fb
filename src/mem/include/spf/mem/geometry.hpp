// Cache geometry: size/ways/line-size triple plus the derived set/tag
// arithmetic every cache-indexed structure uses. Defaults mirror the paper's
// testbed (Intel Core 2 Quad Q6600, Table I).
#pragma once

#include <cstdint>
#include <string>

#include "spf/mem/types.hpp"

namespace spf {

/// Immutable description of one cache level's geometry. All three parameters
/// must be powers of two and the cache must hold at least one set; the
/// constructor throws std::invalid_argument otherwise.
class CacheGeometry {
 public:
  CacheGeometry(std::uint64_t size_bytes, std::uint32_t ways,
                std::uint32_t line_bytes);

  [[nodiscard]] std::uint64_t size_bytes() const noexcept { return size_bytes_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::uint32_t line_bytes() const noexcept { return line_bytes_; }
  [[nodiscard]] std::uint64_t num_sets() const noexcept { return num_sets_; }
  [[nodiscard]] std::uint32_t line_shift() const noexcept { return line_shift_; }

  [[nodiscard]] LineAddr line_of(Addr a) const noexcept { return a >> line_shift_; }
  [[nodiscard]] Addr base_of(LineAddr l) const noexcept {
    return l << line_shift_;
  }
  [[nodiscard]] std::uint64_t set_of_line(LineAddr l) const noexcept {
    return l & set_mask_;
  }
  [[nodiscard]] std::uint64_t set_of(Addr a) const noexcept {
    return set_of_line(line_of(a));
  }
  [[nodiscard]] std::uint64_t tag_of_line(LineAddr l) const noexcept {
    return l >> set_shift_;
  }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const CacheGeometry&, const CacheGeometry&) = default;

  /// Paper Table I geometries.
  static CacheGeometry core2_l1d() { return {32 * 1024, 8, 64}; }
  static CacheGeometry core2_l2() { return {4 * 1024 * 1024, 16, 64}; }

 private:
  std::uint64_t size_bytes_;
  std::uint32_t ways_;
  std::uint32_t line_bytes_;
  std::uint64_t num_sets_;
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;
  std::uint64_t set_mask_;
};

}  // namespace spf
