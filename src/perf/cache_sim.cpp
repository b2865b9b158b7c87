#include "perf/cache_sim.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace grover::perf {

namespace {
bool isPowerOfTwo(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

CacheLevel::CacheLevel(const CacheLevelSpec& spec) : spec_(spec) {
  if (spec_.bytes == 0) {
    num_sets_ = 0;
    return;
  }
  if (!isPowerOfTwo(spec_.lineSize)) {
    throw GroverError("cache line size must be a power of two");
  }
  const std::uint64_t lines = spec_.bytes / spec_.lineSize;
  if (lines % spec_.ways != 0) {
    throw GroverError("cache size/ways mismatch");
  }
  num_sets_ = static_cast<unsigned>(lines / spec_.ways);
  tags_.assign(std::size_t{num_sets_} * spec_.ways, kEmpty);
}

void CacheLevel::reset() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  hits_ = 0;
  misses_ = 0;
}

bool CacheLevel::access(std::uint64_t address) {
  if (num_sets_ == 0) return false;
  const std::uint64_t line = address / spec_.lineSize;
  std::uint64_t* set = &tags_[(line % num_sets_) * spec_.ways];
  // Find the line, stopping at the first empty way: every way behind it
  // is empty too.
  unsigned pos = 0;
  while (pos < spec_.ways && set[pos] != line && set[pos] != kEmpty) ++pos;
  const bool hit = pos < spec_.ways && set[pos] == line;
  if (hit) {
    ++hits_;
  } else {
    ++misses_;
    // Fill the first empty way, or drop the least recently used one.
    pos = std::min(pos, spec_.ways - 1);
  }
  std::copy_backward(set, set + pos, set + pos + 1);
  set[0] = line;
  return hit;
}

bool CacheLevel::contains(std::uint64_t address) const {
  if (num_sets_ == 0) return false;
  const std::uint64_t line = address / spec_.lineSize;
  const std::uint64_t* set = &tags_[(line % num_sets_) * spec_.ways];
  return std::find(set, set + spec_.ways, line) != set + spec_.ways;
}

CacheHierarchy::CacheHierarchy(
    const std::vector<CacheLevelSpec>& privateLevels) {
  levels_.reserve(privateLevels.size());
  for (const CacheLevelSpec& spec : privateLevels) levels_.emplace_back(spec);
}

double CacheHierarchy::accessPrivate(std::uint64_t address, std::uint32_t size,
                                     std::vector<std::uint64_t>& deferred) {
  const unsigned lineSize =
      levels_.empty() ? 64U : levels_.front().lineSize();
  const std::uint64_t first = address / lineSize;
  const std::uint64_t last = (address + (size == 0 ? 0 : size - 1)) / lineSize;
  double worst = 0;
  for (std::uint64_t line = first; line <= last; ++line) {
    bool hit = false;
    for (CacheLevel& level : levels_) {
      if (level.access(line * lineSize)) {
        worst = std::max(worst, level.spec().hitCycles);
        hit = true;
        break;
      }
    }
    if (!hit) deferred.push_back(line * lineSize);
  }
  return worst;
}

}  // namespace grover::perf
