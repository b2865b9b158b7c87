// Trace-driven timing model for cache-only processors (SNB, Nehalem, MIC).
//
// Mapping (paper §II-A, ref [2]): a work-group executes serialized on one
// hardware thread; __local buffers live in ordinary cached memory, one
// arena per thread (reused across the groups that thread runs) — exactly
// why staging through local memory is pure overhead on CPUs unless it
// improves the layout seen by the caches.
//
// The model consumes buffered group traces through the sharded two-phase
// interface of the trace-driven estimator (perf/traced_driver.h).
// digestGroup replays a group's trace against the private L1/L2 of its
// modeled hardware thread (shard) — safe to run concurrently across
// shards — and records, per access, the best private-level latency plus
// the lines that fell through to the shared LLC. mergeGroup then resolves
// those lines against the LLC and accumulates cycles, serially in dense
// group order, so every thread count gives the same estimate bit for bit.
#pragma once

#include <memory>
#include <vector>

#include "perf/cache_sim.h"
#include "perf/platform.h"
#include "rt/trace.h"

namespace grover::perf {

/// Consumes an execution trace and accumulates per-thread cycles.
class CpuModel {
 public:
  explicit CpuModel(const PlatformSpec& spec);

  /// Private-cache replay digest of one work-group (phase B).
  struct GroupDigest {
    unsigned tid = 0;  // modeled hardware thread (= shard)
    /// Per access: worst private-level hit latency and how many of its
    /// lines missed every private level (their addresses follow in
    /// `deferredLines`, in line order).
    struct Access {
      double privateLat = 0;
      std::uint32_t deferred = 0;
    };
    std::vector<Access> accesses;
    std::vector<std::uint64_t> deferredLines;
    rt::InstCounters counters;
  };

  /// One shard per modeled hardware thread; groups round-robin over them
  /// by dense index, so group *sampling* (every Nth group) still spreads
  /// work over all modeled threads.
  [[nodiscard]] unsigned digestShards() const { return spec_.hwThreads; }
  [[nodiscard]] unsigned shardOf(std::uint32_t denseGroup) const {
    return denseGroup % spec_.hwThreads;
  }
  /// Replay `trace` against shard `shard`'s private caches. Calls for the
  /// same shard must be serialized and arrive in dense group order; calls
  /// for different shards may run concurrently (disjoint cache state).
  [[nodiscard]] GroupDigest digestGroup(unsigned shard,
                                        const rt::GroupTrace& trace);
  /// Resolve a digest's LLC-bound lines and accumulate cycles. Must be
  /// called serially, in dense group order, for every digested group.
  void mergeGroup(const GroupDigest& digest);

  /// Estimated execution cycles: the busiest hardware thread.
  [[nodiscard]] double totalCycles() const;
  /// Aggregate memory-hierarchy cycles (diagnostics).
  [[nodiscard]] double memoryCycles() const;
  [[nodiscard]] const rt::InstCounters& counters() const { return totals_; }
  /// L1 hit fraction over all accesses (diagnostics).
  [[nodiscard]] double l1HitRate() const;

 private:
  struct Thread {
    /// Built by the shard's first digestGroup; null until then.
    std::unique_ptr<CacheHierarchy> caches;
    double cycles = 0;
    double memCycles = 0;
  };

  /// Local/private windows remap into per-thread flat address ranges.
  [[nodiscard]] std::uint64_t remapAddress(unsigned tid,
                                           const rt::MemAccess& access) const;
  /// Latency of one private-miss line: shared LLC if present, else DRAM.
  double resolveShared(std::uint64_t lineAddress);

  PlatformSpec spec_;
  std::unique_ptr<CacheLevel> shared_llc_;
  std::vector<Thread> threads_;
  rt::InstCounters totals_;
};

}  // namespace grover::perf
