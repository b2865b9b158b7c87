// Execution tracing: the bridge between the runtime and the performance
// models. The interpreter reports every memory access (with enough context
// to regroup accesses into warp transactions) and per-group instruction
// counts.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "ir/type.h"

namespace grover::rt {

/// One dynamic memory access.
struct MemAccess {
  ir::AddrSpace space = ir::AddrSpace::Global;
  /// Global/Constant: buffer base address + byte offset (buffers get
  /// disjoint address ranges). Local: byte offset within the group arena.
  /// Private: byte offset within the work-item arena.
  std::uint64_t address = 0;
  std::uint32_t size = 0;    // bytes
  bool isWrite = false;
  std::uint32_t group = 0;   // linear work-group id
  std::uint32_t workItem = 0;  // linear id within the group
  /// Static instruction slot — lets a GPU model group the accesses of the
  /// work-items of one warp executing the same load/store together.
  std::uint32_t instSlot = 0;
};

/// Instruction-mix counters, accumulated per work-group.
struct InstCounters {
  std::uint64_t intAlu = 0;
  std::uint64_t floatAlu = 0;
  std::uint64_t vectorAlu = 0;
  std::uint64_t mathCall = 0;   // sqrt/exp/...
  std::uint64_t branch = 0;
  std::uint64_t globalLoad = 0;
  std::uint64_t globalStore = 0;
  std::uint64_t localLoad = 0;
  std::uint64_t localStore = 0;
  std::uint64_t privateAccess = 0;
  std::uint64_t barrier = 0;
  std::uint64_t other = 0;

  [[nodiscard]] std::uint64_t total() const {
    return intAlu + floatAlu + vectorAlu + mathCall + branch + globalLoad +
           globalStore + localLoad + localStore + privateAccess + barrier +
           other;
  }
  InstCounters& operator+=(const InstCounters& o) {
    intAlu += o.intAlu;
    floatAlu += o.floatAlu;
    vectorAlu += o.vectorAlu;
    mathCall += o.mathCall;
    branch += o.branch;
    globalLoad += o.globalLoad;
    globalStore += o.globalStore;
    localLoad += o.localLoad;
    localStore += o.localStore;
    privateAccess += o.privateAccess;
    barrier += o.barrier;
    other += o.other;
    return *this;
  }
};

/// Consumer of execution events. Called from the work-group execution
/// thread; one sink instance must only observe one group at a time unless
/// it synchronizes internally.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void onAccess(const MemAccess& access) = 0;
  /// All work-items of `group` passed a barrier.
  virtual void onBarrier(std::uint32_t group) = 0;
  /// A work-group finished; `counters` is its aggregate instruction mix.
  virtual void onGroupFinish(std::uint32_t group,
                             const InstCounters& counters) = 0;
};

/// The flat trace of one work-group execution: every memory access in
/// program order, barrier positions, and the group's instruction mix. This
/// is the lock-free hot-path representation — a GroupExecutor appends into
/// its own GroupTrace with no virtual dispatch, and the buffered events can
/// later be replayed into a TraceSink (or digested directly by a model) in
/// deterministic group order regardless of how many threads executed.
struct GroupTrace {
  std::uint32_t group = 0;  // linear work-group id
  std::vector<MemAccess> accesses;
  /// Offsets into `accesses` at which a group-wide barrier completed.
  std::vector<std::uint32_t> barriers;
  InstCounters counters;

  void clear() {
    group = 0;
    accesses.clear();
    barriers.clear();
    counters = InstCounters{};
  }

  /// Approximate heap footprint (drives wave sizing in parallel replay).
  [[nodiscard]] std::size_t byteSize() const {
    return accesses.capacity() * sizeof(MemAccess) +
           barriers.capacity() * sizeof(std::uint32_t) + sizeof(*this);
  }

  /// Feed the buffered events to `sink` in original program order:
  /// accesses interleaved with barriers, then onGroupFinish.
  void replay(TraceSink& sink) const {
    std::size_t nextBarrier = 0;
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      while (nextBarrier < barriers.size() && barriers[nextBarrier] == i) {
        sink.onBarrier(group);
        ++nextBarrier;
      }
      sink.onAccess(accesses[i]);
    }
    while (nextBarrier < barriers.size()) {
      sink.onBarrier(group);
      ++nextBarrier;
    }
    sink.onGroupFinish(group, counters);
  }
};

/// The inverse of GroupTrace::replay: rebuilds the GroupTrace of a group
/// run by an executor that pushes events through a TraceSink (the
/// reference tree-walker), so its trace can be digested like a buffered
/// one. Clear `trace` before each group.
struct GroupTraceRecorder final : TraceSink {
  GroupTrace trace;

  void onAccess(const MemAccess& access) override {
    trace.accesses.push_back(access);
  }
  void onBarrier(std::uint32_t group) override {
    (void)group;
    trace.barriers.push_back(
        static_cast<std::uint32_t>(trace.accesses.size()));
  }
  void onGroupFinish(std::uint32_t group,
                     const InstCounters& counters) override {
    trace.group = group;
    trace.counters = counters;
  }
};

/// Base address assigned to global buffer `i` in the flat trace address
/// space (buffers are padded to disjoint 256 MiB windows).
[[nodiscard]] inline std::uint64_t bufferBaseAddress(std::uint32_t index) {
  return 0x1000'0000ULL + std::uint64_t{index} * 0x1000'0000ULL;
}

/// Size of the next parallel traced wave: enough groups to keep `threads`
/// workers busy while bounding the buffered trace memory to ~256 MiB
/// (estimated from the previous wave's average per-group trace size).
[[nodiscard]] inline std::size_t nextTraceWave(std::size_t remaining,
                                               unsigned threads,
                                               std::size_t avgGroupBytes) {
  constexpr std::size_t kTargetBytes = std::size_t{256} << 20;
  std::size_t wave = std::size_t{threads} * 8;
  if (avgGroupBytes > 0) {
    wave = std::max<std::size_t>(kTargetBytes / avgGroupBytes,
                                 std::size_t{threads});
  }
  wave = std::min<std::size_t>(wave, 8192);
  wave = std::max<std::size_t>(wave, threads);
  return std::min(wave, remaining);
}

}  // namespace grover::rt
