// Flag handling the example binaries share.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "spf/common/cli.hpp"
#include "spf/mem/geometry.hpp"

namespace spf::examples {

/// The 16-way, 64 B-line shared L2 of `--l2=<bytes>` (default 1 MiB). A size
/// CacheGeometry rejects is a usage error, as in the bench drivers: one
/// `bad L2 geometry: <reason>` line on stderr and exit 2.
inline CacheGeometry l2_from_flags(const CliFlags& flags) {
  try {
    return CacheGeometry(
        static_cast<std::uint64_t>(flags.get_int("l2", 1 << 20)), 16, 64);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bad L2 geometry: " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace spf::examples
