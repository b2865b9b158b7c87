// Parallel trace-driven estimation driver.
//
// Executes a launch's work-groups once, in bounded waves across a
// ThreadPool, buffering each group's trace (rt::GroupTrace), and feeds
// every trace through the two-phase digest/merge pipeline of each model
// in a list:
//
//   phase A  execute    any thread, any order   -> per-group GroupTrace
//   phase B  digest     per-shard, dense order  -> per-group GroupDigest
//   phase C  merge      serial, dense order     -> cycles
//
// A kernel's execution and its trace do not depend on the platform; only
// the model that prices the trace does. So one execution serves the
// models of several platforms: every model digests and merges a wave's
// traces (one model at a time, so only one model's digests are alive)
// before the next wave executes.
//
// A model shards its private simulation state (digestShards(); 0 means
// digests are stateless and may run anywhere) and keeps everything
// shared — last-level cache, accumulators — inside mergeGroup. Because
// each shard sees its groups in dense order and the merge runs serially in
// dense order, the model state transitions and every floating-point
// accumulation happen in exactly the sequence of a serial run: estimates
// are bit-identical for every thread count and for every list the model
// is part of.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "perf/cpu_model.h"
#include "perf/gpu_model.h"
#include "perf/platform.h"
#include "rt/interpreter.h"

namespace grover::perf {

/// The trace model of one platform.
using TraceModel = std::variant<CpuModel, GpuModel>;

/// A fresh model of `platform`'s kind.
[[nodiscard]] TraceModel makeTraceModel(const PlatformSpec& platform);

/// Execute `groups` (in dense order) of `image` once and feed every
/// group's trace through each of `models` using `threads` workers.
/// Returns the aggregate instruction counters of the executed groups.
///
/// The worker count is capped at the hardware concurrency: the pipeline is
/// CPU-bound, so oversubscribing only adds timeslicing and cache-thrash
/// cost, and the estimate is bit-identical for every thread count anyway.
rt::InstCounters runTracedLaunch(
    std::span<TraceModel> models, const rt::KernelImage& image,
    const std::vector<std::array<std::uint32_t, 3>>& groups,
    unsigned threads);

}  // namespace grover::perf
