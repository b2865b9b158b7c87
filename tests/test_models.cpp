// CPU and GPU timing models: coalescing counts, SPM bank conflicts,
// platform-observable behaviors that drive the paper's results.
#include <gtest/gtest.h>

#include <vector>

#include "grovercl/compiler.h"
#include "perf/cpu_model.h"
#include "perf/estimator.h"
#include "perf/gpu_model.h"

namespace grover::perf {
namespace {

rt::MemAccess globalAccess(std::uint64_t addr, std::uint32_t wi,
                           std::uint32_t instSlot, bool write = false) {
  rt::MemAccess a;
  a.space = ir::AddrSpace::Global;
  a.address = addr;
  a.size = 4;
  a.isWrite = write;
  a.group = 0;
  a.workItem = wi;
  a.instSlot = instSlot;
  return a;
}

rt::MemAccess localAccess(std::uint64_t addr, std::uint32_t wi,
                          std::uint32_t instSlot) {
  rt::MemAccess a = globalAccess(addr, wi, instSlot);
  a.space = ir::AddrSpace::Local;
  return a;
}

rt::GroupTrace groupTrace(std::uint32_t group,
                          std::vector<rt::MemAccess> accesses,
                          const rt::InstCounters& counters = {}) {
  rt::GroupTrace trace;
  trace.group = group;
  trace.accesses = std::move(accesses);
  trace.counters = counters;
  return trace;
}

/// Feed one group through the model the way perf::estimate does; `dense`
/// is the group's position among the launch's executed groups.
template <typename Model>
void runGroup(Model& model, std::uint32_t dense, const rt::GroupTrace& trace) {
  model.mergeGroup(model.digestGroup(model.shardOf(dense), trace));
}

TEST(GpuModel, CoalescedWarpIsOneTransaction) {
  GpuModel model(fermi());
  std::vector<rt::MemAccess> accesses;
  for (std::uint32_t wi = 0; wi < 32; ++wi) {
    accesses.push_back(globalAccess(0x1000 + wi * 4, wi, /*slot=*/7));
  }
  runGroup(model, 0, groupTrace(0, accesses));
  EXPECT_EQ(model.globalTransactions(), 1u);
}

TEST(GpuModel, StridedWarpSplitsIntoManyTransactions) {
  GpuModel model(fermi());
  std::vector<rt::MemAccess> accesses;
  for (std::uint32_t wi = 0; wi < 32; ++wi) {
    accesses.push_back(globalAccess(0x1000 + wi * 4096, wi, 7));
  }
  runGroup(model, 0, groupTrace(0, accesses));
  EXPECT_EQ(model.globalTransactions(), 32u);
}

TEST(GpuModel, BroadcastIsOneTransaction) {
  GpuModel model(fermi());
  std::vector<rt::MemAccess> accesses;
  for (std::uint32_t wi = 0; wi < 32; ++wi) {
    accesses.push_back(globalAccess(0x1000, wi, 7));  // same address
  }
  runGroup(model, 0, groupTrace(0, accesses));
  EXPECT_EQ(model.globalTransactions(), 1u);
}

TEST(GpuModel, SeparateWarpsDoNotCoalesceTogether) {
  GpuModel model(fermi());
  // 64 work-items = 2 warps; consecutive addresses within each warp.
  std::vector<rt::MemAccess> accesses;
  for (std::uint32_t wi = 0; wi < 64; ++wi) {
    accesses.push_back(globalAccess(0x1000 + wi * 4, wi, 7));
  }
  runGroup(model, 0, groupTrace(0, accesses));
  EXPECT_EQ(model.globalTransactions(), 2u);
}

TEST(GpuModel, DistinctOccurrencesAreDistinctInstructions) {
  GpuModel model(fermi());
  // One work-item executes the same load twice (a loop): the two
  // executions must not coalesce with each other.
  runGroup(model, 0,
           groupTrace(0, {globalAccess(0x1000, 0, 7),
                          globalAccess(0x2000, 0, 7)}));
  EXPECT_EQ(model.globalTransactions(), 2u);
}

TEST(GpuModel, SpmConflictFreeVsConflicted) {
  const PlatformSpec spec = fermi();
  GpuModel conflictFree(spec);
  // 32 lanes hitting 32 different banks (stride 4B).
  std::vector<rt::MemAccess> spread;
  for (std::uint32_t wi = 0; wi < 32; ++wi) {
    spread.push_back(localAccess(wi * 4, wi, 9));
  }
  runGroup(conflictFree, 0, groupTrace(0, spread));

  GpuModel conflicted(spec);
  // 32 lanes striding 128B: every word maps to bank 0 → 32-way conflict.
  std::vector<rt::MemAccess> strided;
  for (std::uint32_t wi = 0; wi < 32; ++wi) {
    strided.push_back(localAccess(wi * 128, wi, 9));
  }
  runGroup(conflicted, 0, groupTrace(0, strided));

  EXPECT_GT(conflicted.spmCyclesTotal(),
            conflictFree.spmCyclesTotal() * 16);
}

TEST(GpuModel, Wavefront64CoalescesWider) {
  GpuModel model(tahiti());  // 64-lane wavefronts
  std::vector<rt::MemAccess> accesses;
  for (std::uint32_t wi = 0; wi < 64; ++wi) {
    accesses.push_back(globalAccess(0x1000 + wi * 4, wi, 7));
  }
  runGroup(model, 0, groupTrace(0, accesses));
  EXPECT_EQ(model.globalTransactions(), 2u);  // 256B over 128B segments
}

TEST(CpuModel, LocalArenaIsReusedPerThread) {
  // Two groups on one modeled thread: the second group's local traffic
  // must hit the cache warmed by the first.
  PlatformSpec spec = snb();
  spec.hwThreads = 1;
  CpuModel model(spec);
  for (std::uint32_t group = 0; group < 2; ++group) {
    std::vector<rt::MemAccess> accesses;
    for (std::uint32_t wi = 0; wi < 16; ++wi) {
      rt::MemAccess a = localAccess(wi * 4, wi, 3);
      a.group = group;
      accesses.push_back(a);
    }
    runGroup(model, group, groupTrace(group, accesses));
  }
  EXPECT_GT(model.l1HitRate(), 0.9);  // only the first line misses
}

TEST(CpuModel, BusiestThreadBoundsTotal) {
  PlatformSpec spec = snb();
  spec.hwThreads = 2;
  CpuModel model(spec);
  rt::InstCounters heavy;
  heavy.intAlu = 1000;
  // Three groups round-robin onto 2 threads: thread 0 gets two groups.
  runGroup(model, 0, groupTrace(0, {}, heavy));
  runGroup(model, 1, groupTrace(1, {}, heavy));
  runGroup(model, 2, groupTrace(2, {}, heavy));
  const double total = model.totalCycles();
  const double perGroup = 1000 * spec.cpi + spec.groupOverheadCycles;
  EXPECT_DOUBLE_EQ(total, 2 * perGroup);
}

TEST(CpuModel, BarrierCostCharged) {
  PlatformSpec spec = snb();
  CpuModel model(spec);
  rt::InstCounters counters;
  counters.barrier = 10;
  runGroup(model, 0, groupTrace(0, {}, counters));
  EXPECT_GE(model.totalCycles(), 10 * spec.barrierCycles);
}

TEST(Estimator, ClassifyThreshold) {
  EXPECT_EQ(classify(1.10), Outcome::Gain);
  EXPECT_EQ(classify(0.90), Outcome::Loss);
  EXPECT_EQ(classify(1.04), Outcome::Similar);
  EXPECT_EQ(classify(0.96), Outcome::Similar);
  EXPECT_EQ(classify(1.2, 0.3), Outcome::Similar);  // custom threshold
}

TEST(Estimator, NormalizedPerformanceOrientation) {
  // np > 1 ⇔ the no-local-memory version is faster (fewer cycles).
  EXPECT_GT(normalizedPerformance(200, 100), 1.0);
  EXPECT_LT(normalizedPerformance(100, 200), 1.0);
}

TEST(Estimator, EndToEndOnTinyKernel) {
  auto program = compile(R"(
__kernel void k(__global float* out) {
  out[get_global_id(0)] = 1.0f;
})");
  ir::Function* fn = program.kernel("k");
  rt::Buffer out = rt::Buffer::zeros<float>(64);
  for (const PlatformSpec& p : allPlatforms()) {
    PerfEstimate est = estimate(p, *fn, rt::NDRange::make1D(64, 16),
                                {rt::KernelArg::buffer(&out)});
    EXPECT_GT(est.cycles, 0) << p.name;
    EXPECT_EQ(est.counters.globalStore, 64u) << p.name;
  }
}

TEST(Estimator, SamplingScalesCycles) {
  auto program = compile(R"(
__kernel void k(__global float* out) {
  out[get_global_id(0)] = 2.0f;
})");
  ir::Function* fn = program.kernel("k");
  rt::Buffer out1 = rt::Buffer::zeros<float>(1024);
  PerfEstimate full = estimate(snb(), *fn, rt::NDRange::make1D(1024, 16),
                               {rt::KernelArg::buffer(&out1)}, 1);
  rt::Buffer out2 = rt::Buffer::zeros<float>(1024);
  PerfEstimate sampled = estimate(snb(), *fn, rt::NDRange::make1D(1024, 16),
                                  {rt::KernelArg::buffer(&out2)}, 4);
  // Sampled estimate lands within 2x of the full estimate (homogeneous
  // groups; cache state differs slightly).
  EXPECT_GT(sampled.cycles, full.cycles * 0.5);
  EXPECT_LT(sampled.cycles, full.cycles * 2.0);
}

TEST(Platforms, SpecsAreSane) {
  for (const PlatformSpec& p : allPlatforms()) {
    EXPECT_FALSE(p.name.empty());
    if (p.kind == PlatformKind::CpuCacheOnly) {
      EXPECT_GE(p.privateLevels.size(), 1u);
      EXPECT_GT(p.hwThreads, 0u);
      EXPECT_GT(p.memCycles, p.privateLevels[0].hitCycles);
    } else {
      EXPECT_TRUE(p.warpSize == 32 || p.warpSize == 64);
      EXPECT_GT(p.transactionCycles, 0);
    }
  }
  EXPECT_EQ(cacheOnlyPlatforms().size(), 3u);
  EXPECT_EQ(allPlatforms().size(), 6u);
}

}  // namespace
}  // namespace grover::perf
