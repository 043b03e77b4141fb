// Flag handling the example binaries share. A malformed or rejected value is
// a usage error, as in the bench drivers: one line on stderr and exit 2,
// never a silent 0 or an abort.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "spf/common/cli.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/workloads/em3d.hpp"

namespace spf::examples {

/// `--name=<unsigned>` or `def`. A value that is not one whole unsigned
/// token of at most `max` (spf::parse_u64) prints `bad --<name> value '<v>'`
/// and exits 2.
inline std::uint64_t require_uint(
    const CliFlags& flags, const std::string& name, std::uint64_t def,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const std::optional<std::uint64_t> v = flags.get_uint(name, def);
  if (v && *v <= max) return *v;
  std::cerr << "bad --" << name << " value '" << flags.get(name, "") << "'\n";
  std::exit(2);
}

/// require_uint for a 32-bit field.
inline std::uint32_t require_u32(const CliFlags& flags, const std::string& name,
                                 std::uint32_t def) {
  return static_cast<std::uint32_t>(
      require_uint(flags, name, def, std::numeric_limits<std::uint32_t>::max()));
}

/// The 16-way, 64 B-line shared L2 of `--l2=<bytes>` (default 1 MiB). A size
/// CacheGeometry rejects prints `bad L2 geometry: <reason>` and exits 2.
inline CacheGeometry l2_from_flags(const CliFlags& flags) {
  const std::uint64_t bytes = require_uint(flags, "l2", 1 << 20);
  try {
    return CacheGeometry(bytes, 16, 64);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bad L2 geometry: " << e.what() << "\n";
    std::exit(2);
  }
}

/// The em3d workload of `config` (built from flags). A config Em3dWorkload
/// rejects, say `--nodes=2`, prints `bad em3d config: <reason>` and exits 2.
inline Em3dWorkload em3d_from_flags(const Em3dConfig& config) {
  try {
    return Em3dWorkload(config);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bad em3d config: " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace spf::examples
