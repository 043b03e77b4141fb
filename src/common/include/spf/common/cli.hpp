// Minimal --key=value flag parser for the bench/example binaries. Every
// binary in bench/ must run with no arguments (CI sweeps `for b in bench/*`),
// so all flags carry defaults; unknown flags are an error to catch typos.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace spf {

// Whole-token parses for flag values: each returns false on an empty token,
// trailing junk or a value out of range, where the C conversions would
// silently stop at the first bad character or yield 0.

/// Unsigned decimal; a sign is rejected too.
[[nodiscard]] bool parse_u64(const std::string& s, std::uint64_t& out);
/// parse_u64 narrowed to 32 bits: a larger value is out of range.
[[nodiscard]] bool parse_u32(const std::string& s, std::uint32_t& out);
[[nodiscard]] bool parse_double(const std::string& s, double& out);

class CliFlags {
 public:
  /// Parses argv of the form --name=value or --name (boolean true).
  /// Positional arguments are collected separately.
  CliFlags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// Strict unsigned accessor: `def` when the flag is absent, its value when
  /// that parses as one whole unsigned token (parse_u64), nullopt when it
  /// does not (`--n`, `--n=`, `--n=abc`, `--n=-1`, `--n=4x`, overflow).
  /// get_int instead maps a malformed value to 0.
  [[nodiscard]] std::optional<std::uint64_t> get_uint(const std::string& name,
                                                      std::uint64_t def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Flags that were parsed but never queried — call after all get()s to
  /// reject typos. Returns the unknown names.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace spf
