// The NDRange execution engine: interprets kernels in SSA form with OpenCL
// work-group/barrier semantics. Work-items of a group execute on one thread
// in barrier-region order — the same mapping Intel's CPU runtime uses
// (paper ref [2]) — so the memory trace order matches what the CPU
// performance models assume.
//
// Each KernelImage pre-decodes its function once into a flat instruction
// stream (rt/decode.h); GroupExecutor walks that stream and appends trace
// events into a per-group GroupTrace buffer with no locks or virtual calls,
// which is what lets traced launches fan out across the ThreadPool while
// the trace consumer still observes groups in deterministic dense order.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "rt/buffer.h"
#include "rt/decode.h"
#include "rt/ndrange.h"
#include "rt/trace.h"
#include "rt/value.h"

namespace grover::rt {

/// One kernel argument: a buffer (for pointer params) or a scalar.
struct KernelArg {
  static KernelArg buffer(Buffer* b) {
    KernelArg a;
    a.value = b;
    return a;
  }
  static KernelArg int32(std::int32_t v) {
    KernelArg a;
    a.value = static_cast<std::int64_t>(v);
    return a;
  }
  static KernelArg float32(float v) {
    KernelArg a;
    a.value = static_cast<double>(v);
    return a;
  }
  std::variant<Buffer*, std::int64_t, double> value;
};

/// Immutable, shareable pre-computation for one kernel launch: value slot
/// count, local/private arena layouts, bound argument values, and the
/// pre-decoded instruction stream.
class KernelImage {
 public:
  KernelImage(ir::Function& fn, const NDRange& range,
              const std::vector<KernelArg>& args);

  [[nodiscard]] ir::Function& function() const { return fn_; }
  [[nodiscard]] const NDRange& range() const { return range_; }
  [[nodiscard]] unsigned numSlots() const { return num_slots_; }
  [[nodiscard]] std::uint64_t localArenaSize() const { return local_size_; }
  [[nodiscard]] std::uint64_t privateArenaSize() const {
    return private_size_;
  }
  [[nodiscard]] const std::vector<RtValue>& argValues() const {
    return arg_values_;
  }
  [[nodiscard]] const std::vector<Buffer*>& buffers() const {
    return buffers_;
  }
  /// Arena offset of a local/private alloca.
  [[nodiscard]] std::int64_t allocaOffset(const ir::AllocaInst* a) const;
  /// The flat decoded instruction stream shared by all executors.
  [[nodiscard]] const DecodedKernel& decoded() const { return decoded_; }

 private:
  ir::Function& fn_;
  NDRange range_;
  unsigned num_slots_ = 0;
  std::uint64_t local_size_ = 0;
  std::uint64_t private_size_ = 0;
  std::vector<RtValue> arg_values_;
  std::vector<Buffer*> buffers_;
  std::unordered_map<const ir::AllocaInst*, std::int64_t> alloca_offsets_;
  DecodedKernel decoded_;
};

/// Executes work-groups of one launch by walking the pre-decoded stream.
/// Not thread-safe; use one per thread.
class GroupExecutor {
 public:
  explicit GroupExecutor(const KernelImage& image);

  /// Buffer receiving this executor's trace events; null disables tracing.
  /// The buffer is cleared and refilled by each runGroup call.
  void setTrace(GroupTrace* trace) { trace_ = trace; }

  /// Execute one work-group to completion (throws on barrier divergence,
  /// out-of-bounds access, or unsupported IR).
  void runGroup(const std::array<std::uint32_t, 3>& groupId);

  [[nodiscard]] const InstCounters& totalCounters() const {
    return total_counters_;
  }

 private:
  enum class WiStatus : std::uint8_t { Running, AtBarrier, Done };

  struct WorkItem {
    std::array<std::uint32_t, 3> localId{};
    std::uint32_t linear = 0;
    std::vector<RtValue> slots;
    std::vector<std::byte> privateArena;
    std::uint32_t pc = 0;
    WiStatus status = WiStatus::Running;
    std::uint32_t barrierAt = 0;  // pc of the barrier instruction reached
  };

  void resetWorkItem(WorkItem& wi);
  /// Run until the work-item hits a barrier or returns.
  void advance(WorkItem& wi);
  /// Perform an edge's phi moves (two-phase) and jump to its target.
  void takeEdge(WorkItem& wi, const DEdge& edge);

  [[nodiscard]] const RtValue& readRef(const WorkItem& wi, DRef ref) const {
    return ref >= 0 ? wi.slots[static_cast<std::size_t>(ref)]
                    : image_.decoded().constant(-ref - 1);
  }

  void execLoad(WorkItem& wi, const DInst& d, const PtrVal& ptr,
                RtValue& out);
  void execStore(WorkItem& wi, const DInst& d, const PtrVal& ptr,
                 const RtValue& value);
  std::byte* resolve(WorkItem& wi, const PtrVal& ptr, std::uint64_t size,
                     std::uint64_t& traceAddr);
  std::int64_t execIdQuery(WorkItem& wi, const DInst& d);
  void execMathCall(WorkItem& wi, const DInst& d, RtValue& out);

  const KernelImage& image_;
  GroupTrace* trace_ = nullptr;
  std::array<std::uint32_t, 3> group_{};
  std::uint32_t group_linear_ = 0;
  /// Fresh slot state with argument values pre-seeded; resetWorkItem
  /// restores a work-item's slots with one trivially-copyable assign.
  std::vector<RtValue> proto_slots_;
  std::vector<std::byte> local_arena_;
  std::vector<WorkItem> items_;
  std::vector<RtValue> phi_scratch_;
  InstCounters counters_;
  InstCounters total_counters_;
};

/// Top-level launch driver: executes every group, optionally multithreaded
/// or on a sampled subset of groups. Traced execution goes through
/// GroupExecutor and GroupTrace (perf/traced_driver.h).
class Launch {
 public:
  Launch(ir::Function& fn, const NDRange& range, std::vector<KernelArg> args);

  /// Execute only every `stride`-th group (trace-based perf sampling).
  void setGroupSampling(std::uint32_t stride) { sample_stride_ = stride; }

  /// Run to completion; returns aggregate instruction counters.
  /// threads == 0 picks std::thread::hardware_concurrency().
  InstCounters run(unsigned threads = 1);

  [[nodiscard]] const KernelImage& image() const { return image_; }
  /// Groups selected by the sampling stride, in dense (replay) order.
  [[nodiscard]] std::vector<std::array<std::uint32_t, 3>> sampledGroups()
      const;

 private:
  KernelImage image_;
  std::uint32_t sample_stride_ = 1;
};

}  // namespace grover::rt
