// Estimator: run a kernel under the interpreter with the right trace model
// attached and return estimated cycles. The paper's normalized performance
// (np = perf without LM / perf with LM = cycles_with / cycles_without) is
// computed from two estimates on the same platform, so absolute calibration
// cancels.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ir/function.h"
#include "perf/platform.h"
#include "rt/interpreter.h"

namespace grover::perf {

struct PerfEstimate {
  double cycles = 0;
  rt::InstCounters counters;
  // Diagnostics.
  double memoryCycles = 0;         // CPU models
  double l1HitRate = 0;            // CPU models
  std::uint64_t transactions = 0;  // GPU models
  double spmCycles = 0;            // GPU models
};

/// Execute `fn` over the NDRange (optionally sampling every Nth group) and
/// estimate its run time on `platform`. Sampling scales the result back up.
/// `threads` sets how many host threads execute and digest the trace
/// (0 = hardware_concurrency); the estimate is bit-identical for every
/// thread count — see perf/traced_driver.h for the guarantee.
[[nodiscard]] PerfEstimate estimate(const PlatformSpec& platform,
                                    ir::Function& fn,
                                    const rt::NDRange& range,
                                    std::vector<rt::KernelArg> args,
                                    std::uint32_t sampleStride = 1,
                                    unsigned threads = 0);

/// The estimates of `fn` on each of `platforms`, in the same order, from
/// one execution: every platform's model prices the same group traces.
/// Each estimate is bit-identical to the single-platform one.
[[nodiscard]] std::vector<PerfEstimate> estimate(
    std::span<const PlatformSpec> platforms, ir::Function& fn,
    const rt::NDRange& range, std::vector<rt::KernelArg> args,
    std::uint32_t sampleStride = 1, unsigned threads = 0);

/// normalized performance of "without local memory" vs "with":
/// np > 1 → disabling local memory is faster (paper Fig. 2/10 y-axis).
[[nodiscard]] double normalizedPerformance(double cyclesWithLM,
                                           double cyclesWithoutLM);

/// Gain/Loss/Similar classification at the paper's 5% threshold (Table IV).
enum class Outcome { Gain, Loss, Similar };
[[nodiscard]] Outcome classify(double np, double threshold = 0.05);
[[nodiscard]] const char* toString(Outcome o);

}  // namespace grover::perf
