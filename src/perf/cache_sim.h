// Set-associative LRU cache simulation (trace-driven). Layout-dependent
// reuse — the effect behind the paper's NVD-MM-B and ROD-SC results —
// emerges from this simulation instead of being hard-coded.
#pragma once

#include <cstdint>
#include <vector>

#include "perf/platform.h"

namespace grover::perf {

/// One set-associative LRU cache level.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheLevelSpec& spec);

  /// Access the line containing `address`; returns true on hit. A miss
  /// fills the line (allocate-on-miss for reads and writes).
  bool access(std::uint64_t address);

  /// Probe without updating (for inclusive checks in tests).
  [[nodiscard]] bool contains(std::uint64_t address) const;

  void reset();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] unsigned lineSize() const { return spec_.lineSize; }
  [[nodiscard]] const CacheLevelSpec& spec() const { return spec_; }

 private:
  /// Tag of an empty way. Line numbers are addresses divided by the line
  /// size, so none reaches it.
  static constexpr std::uint64_t kEmpty = ~0ULL;

  CacheLevelSpec spec_;
  unsigned num_sets_ = 1;
  /// num_sets_ × spec_.ways line numbers. Each set is ordered most
  /// recently used first, with its empty ways at the back: a hit moves
  /// its tag to the front, a miss shifts the set by one, dropping the
  /// last way, the least recently used or an empty one.
  std::vector<std::uint64_t> tags_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// The private L1[/L2] of one modeled hardware thread. The shared
/// last-level cache belongs to the model that owns the hierarchies
/// (CpuModel), which replays the lines that miss every private level.
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const std::vector<CacheLevelSpec>& privateLevels);

  /// Simulate one access of `size` bytes against the private levels
  /// (line-crossing accesses touch every covered line). Every covered
  /// line that misses all of them is appended to `deferred` (line-aligned
  /// addresses, in line order). The returned latency covers the private
  /// hits only; the caller resolves each deferred line against the LLC
  /// and takes the max, so the worst line determines the latency. Keeping
  /// the LLC out lets private-level simulation run concurrently per shard
  /// while the shared LLC is replayed serially in group order.
  double accessPrivate(std::uint64_t address, std::uint32_t size,
                       std::vector<std::uint64_t>& deferred);

  [[nodiscard]] const std::vector<CacheLevel>& levels() const {
    return levels_;
  }

 private:
  std::vector<CacheLevel> levels_;
};

}  // namespace grover::perf
