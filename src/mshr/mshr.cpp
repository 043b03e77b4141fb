#include "spf/mshr/mshr.hpp"

#include "spf/common/assert.hpp"

namespace spf {

MshrFile::MshrFile(std::size_t capacity) : capacity_(capacity) {
  SPF_ASSERT(capacity > 0, "MSHR file needs positive capacity");
  entries_.reserve(capacity);
  lines_.reserve(capacity);
}

std::vector<MshrEntry> MshrFile::drain_completed(Cycle now) {
  std::vector<MshrEntry> done;
  drain_completed_into(now, done);
  return done;
}

}  // namespace spf
