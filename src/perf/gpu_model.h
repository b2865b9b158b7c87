// Trace-driven timing model for the GPU platforms (Fermi, Kepler, Tahiti).
//
// Work-items are grouped into warps/wavefronts; the accesses every warp
// issues for one static load/store are coalesced into 128-byte
// transactions, local memory is an on-chip scratch-pad with bank-conflict
// serialization, and compute overlaps memory (per-group cycles are
// max(compute, memory)). These are exactly the mechanisms that make the
// staged (local-memory) transpose fast and the direct strided one slow on
// real GPUs.
//
// The model consumes buffered group traces through the two-phase
// interface of the trace-driven estimator (perf/traced_driver.h). Warp
// formation, bank-conflict degrees, and coalesced segment lists depend only
// on one group's trace, so digestGroup is stateless (digestShards() == 0)
// and safe to run concurrently for any set of groups. Only mergeGroup
// touches shared state (the device read cache and the cycle accumulators)
// and must run serially in dense group order.
#pragma once

#include <memory>
#include <vector>

#include "perf/cache_sim.h"
#include "perf/platform.h"
#include "rt/trace.h"

namespace grover::perf {

class GpuModel {
 public:
  explicit GpuModel(const PlatformSpec& spec);

  /// Group-local digest: everything about one group's memory behaviour
  /// that can be computed without the shared device cache.
  struct GroupDigest {
    double spmCycles = 0;  // scratch-pad time incl. bank-conflict replays
    /// 128-byte-aligned global segment addresses, in warp-access order —
    /// replayed against the device cache at merge time.
    std::vector<std::uint64_t> segments;
    rt::InstCounters counters;
  };

  /// Digests are stateless: any thread may digest any group.
  [[nodiscard]] unsigned digestShards() const { return 0; }
  [[nodiscard]] unsigned shardOf(std::uint32_t denseGroup) const {
    (void)denseGroup;
    return 0;
  }
  /// Buckets the group's accesses by (warp, instSlot, occurrence) — the
  /// work-items of one warp executing the same dynamic load/store — and
  /// charges each bucket as one warp instruction.
  [[nodiscard]] GroupDigest digestGroup(unsigned shard,
                                        const rt::GroupTrace& trace) const;
  /// Replay a digest's segments against the device cache and accumulate
  /// cycles. Must be called serially, in dense group order.
  void mergeGroup(const GroupDigest& digest);

  /// Estimated device cycles: sum of per-group max(compute, memory)
  /// (the concurrency divisor cancels in with/without-LM ratios).
  [[nodiscard]] double totalCycles() const { return total_cycles_; }
  [[nodiscard]] std::uint64_t globalTransactions() const {
    return transactions_;
  }
  [[nodiscard]] double spmCyclesTotal() const { return spm_cycles_total_; }
  [[nodiscard]] const rt::InstCounters& counters() const { return totals_; }

 private:
  PlatformSpec spec_;
  std::unique_ptr<CacheLevel> cache_;  // device-wide read cache

  double total_cycles_ = 0;
  std::uint64_t transactions_ = 0;
  double spm_cycles_total_ = 0;
  rt::InstCounters totals_;
};

}  // namespace grover::perf
