#include "spf/mem/geometry.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace spf {

CacheGeometry::CacheGeometry(std::uint64_t size_bytes, std::uint32_t ways,
                             std::uint32_t line_bytes)
    : size_bytes_(size_bytes), ways_(ways), line_bytes_(line_bytes) {
  if (!std::has_single_bit(size_bytes)) {
    throw std::invalid_argument("cache size must be a power of two");
  }
  if (!std::has_single_bit(static_cast<std::uint64_t>(ways))) {
    throw std::invalid_argument("associativity must be a power of two");
  }
  if (!std::has_single_bit(static_cast<std::uint64_t>(line_bytes))) {
    throw std::invalid_argument("line size must be a power of two");
  }
  if (size_bytes < static_cast<std::uint64_t>(ways) * line_bytes) {
    throw std::invalid_argument("cache must hold at least one set");
  }
  num_sets_ = size_bytes / (static_cast<std::uint64_t>(ways) * line_bytes);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(line_bytes)));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
  set_mask_ = num_sets_ - 1;
}

std::string CacheGeometry::to_string() const {
  std::ostringstream out;
  if (size_bytes_ >= 1024 * 1024 && size_bytes_ % (1024 * 1024) == 0) {
    out << size_bytes_ / (1024 * 1024) << "MB";
  } else if (size_bytes_ >= 1024 && size_bytes_ % 1024 == 0) {
    out << size_bytes_ / 1024 << "KB";
  } else {
    out << size_bytes_ << "B";
  }
  out << ", " << ways_ << "-way, " << line_bytes_ << "B line, " << num_sets_
      << " sets";
  return out.str();
}

}  // namespace spf
