#include "spf/common/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace spf {

bool parse_u64(const std::string& s, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0' || s[0] == '-') {
    return false;
  }
  out = v;
  return true;
}

bool parse_u32(const std::string& s, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_double(const std::string& s, double& out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_[arg.substr(2)] = "true";
      } else {
        flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
  for (const auto& [name, value] : flags_) {
    (void)value;
    consumed_[name] = false;
  }
}

bool CliFlags::has(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return false;
  consumed_[name] = true;
  return true;
}

std::string CliFlags::get(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  consumed_[name] = true;
  return it->second;
}

std::optional<std::uint64_t> CliFlags::get_uint(const std::string& name,
                                                std::uint64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  consumed_[name] = true;
  std::uint64_t v = 0;
  if (!parse_u64(it->second, v)) return std::nullopt;
  return v;
}

std::optional<bool> CliFlags::get_bool(const std::string& name,
                                       bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  consumed_[name] = true;
  const std::string& v = it->second;  // a bare --name parsed as "true"
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return std::nullopt;
}

std::vector<std::string> CliFlags::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [name, used] : consumed_) {
    if (!used) out.push_back(name);
  }
  return out;
}

}  // namespace spf
