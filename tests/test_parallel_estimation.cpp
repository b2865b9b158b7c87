// Parallel trace-driven estimation: the decoded interpreter must match the
// reference tree-walking executor event for event, and perf::estimate must
// return bit-identical cycles for every thread count (the determinism
// guarantee of perf/traced_driver.h), on applications covering the
// paper's Table I pattern classes. Every test-scale Table I estimate is
// also pinned bit for bit against a table, both from single-platform
// estimates and from one execution priced on all six platforms.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "apps/app.h"
#include "grovercl/compiler.h"
#include "grovercl/harness.h"
#include "perf/cpu_model.h"
#include "perf/estimator.h"
#include "perf/gpu_model.h"
#include "perf/platform.h"
#include "rt/interpreter.h"
#include "rt/ref_interpreter.h"

namespace grover {
namespace {

/// Records every trace event for exact stream comparison.
struct RecordingSink final : rt::TraceSink {
  using AccessTuple = std::tuple<int, std::uint64_t, std::uint32_t, bool,
                                 std::uint32_t, std::uint32_t, std::uint32_t>;
  struct Event {
    enum Kind { Access, Barrier, GroupFinish } kind = Access;
    AccessTuple access;
    std::uint32_t group = 0;
    std::uint64_t counterTotal = 0;

    bool operator==(const Event& o) const {
      return kind == o.kind && access == o.access && group == o.group &&
             counterTotal == o.counterTotal;
    }
  };
  std::vector<Event> events;

  void onAccess(const rt::MemAccess& a) override {
    Event e;
    e.kind = Event::Access;
    e.access = {static_cast<int>(a.space), a.address, a.size, a.isWrite,
                a.group, a.workItem, a.instSlot};
    events.push_back(e);
  }
  void onBarrier(std::uint32_t group) override {
    Event e;
    e.kind = Event::Barrier;
    e.group = group;
    events.push_back(e);
  }
  void onGroupFinish(std::uint32_t group,
                     const rt::InstCounters& counters) override {
    Event e;
    e.kind = Event::GroupFinish;
    e.group = group;
    e.counterTotal = counters.total();
    events.push_back(e);
  }
};

/// Apps covering the Table I pattern classes exercised by the estimator:
/// staging transpose, tiled matrix multiply, stencil.
const char* const kApps[] = {"NVD-MT", "NVD-MM-A", "PAB-ST"};

ir::Function* compiledKernel(Program& program, const apps::Application& app) {
  ir::Function* fn = program.kernel(app.kernelName());
  EXPECT_NE(fn, nullptr);
  return fn;
}

TEST(ParallelEstimation, DecodedMatchesReferenceExecutor) {
  for (const char* id : kApps) {
    const apps::Application& app = apps::applicationById(id);

    // Reference: tree-walking executor pushing straight into the sink.
    Program refProgram = compile(app.source());
    apps::Instance refInstance = app.makeInstance(apps::Scale::Test);
    rt::Launch refLaunch(*compiledKernel(refProgram, app), refInstance.range,
                         refInstance.args);
    RecordingSink refSink;
    rt::ReferenceExecutor refExec(refLaunch.image(), &refSink);
    for (const auto& g : refLaunch.sampledGroups()) refExec.runGroup(g);
    std::string message;
    EXPECT_TRUE(refInstance.validate(message)) << id << ": " << message;

    // Decoded: each sampled group executed into a GroupTrace in dense
    // order, and the buffered events replayed into the sink.
    Program decProgram = compile(app.source());
    apps::Instance decInstance = app.makeInstance(apps::Scale::Test);
    rt::Launch decLaunch(*compiledKernel(decProgram, app), decInstance.range,
                         decInstance.args);
    RecordingSink decSink;
    rt::GroupExecutor decExec(decLaunch.image());
    rt::GroupTrace trace;
    decExec.setTrace(&trace);
    for (const auto& g : decLaunch.sampledGroups()) {
      decExec.runGroup(g);
      trace.replay(decSink);
    }
    EXPECT_TRUE(decInstance.validate(message)) << id << ": " << message;

    EXPECT_EQ(decExec.totalCounters().total(),
              refExec.totalCounters().total())
        << id;
    ASSERT_EQ(decSink.events.size(), refSink.events.size()) << id;
    EXPECT_TRUE(decSink.events == refSink.events)
        << id << ": trace event streams diverge";
  }
}

TEST(ParallelEstimation, CyclesBitIdenticalAcrossThreadCounts) {
  const perf::PlatformSpec platforms[] = {perf::snb(), perf::mic(),
                                          perf::fermi()};
  for (const char* id : kApps) {
    const apps::Application& app = apps::applicationById(id);
    Program program = compile(app.source());
    ir::Function* kernel = compiledKernel(program, app);
    for (const perf::PlatformSpec& platform : platforms) {
      apps::Instance a = app.makeInstance(apps::Scale::Test);
      const perf::PerfEstimate serial =
          perf::estimate(platform, *kernel, a.range, a.args, 1, 1);
      apps::Instance b = app.makeInstance(apps::Scale::Test);
      const perf::PerfEstimate parallel =
          perf::estimate(platform, *kernel, b.range, b.args, 1, 8);
      EXPECT_EQ(serial.cycles, parallel.cycles)
          << id << " on " << platform.name;
      EXPECT_EQ(serial.memoryCycles, parallel.memoryCycles)
          << id << " on " << platform.name;
      EXPECT_EQ(serial.transactions, parallel.transactions)
          << id << " on " << platform.name;
      EXPECT_EQ(serial.spmCycles, parallel.spmCycles)
          << id << " on " << platform.name;
      EXPECT_EQ(serial.counters.total(), parallel.counters.total())
          << id << " on " << platform.name;
    }
  }
}

/// The oracle of the parallel pipeline: the reference tree-walker runs
/// every sampled group in order, and each recorded trace goes straight
/// through the model's digest and merge.
template <typename Model>
double referenceCycles(const perf::PlatformSpec& platform,
                       const rt::Launch& launch) {
  Model model(platform);
  rt::GroupTraceRecorder recorder;
  rt::ReferenceExecutor exec(launch.image(), &recorder);
  const auto groups = launch.sampledGroups();
  for (std::size_t dense = 0; dense < groups.size(); ++dense) {
    recorder.trace.clear();
    exec.runGroup(groups[dense]);
    model.mergeGroup(model.digestGroup(
        model.shardOf(static_cast<std::uint32_t>(dense)), recorder.trace));
  }
  return model.totalCycles();
}

TEST(ParallelEstimation, DigestPipelineMatchesSerialSinkPath) {
  const perf::PlatformSpec platforms[] = {perf::snb(), perf::mic(),
                                          perf::fermi()};
  for (const char* id : kApps) {
    const apps::Application& app = apps::applicationById(id);
    Program program = compile(app.source());
    ir::Function* kernel = compiledKernel(program, app);
    for (const perf::PlatformSpec& platform : platforms) {
      double sinkCycles = 0;
      {
        apps::Instance instance = app.makeInstance(apps::Scale::Test);
        rt::Launch launch(*kernel, instance.range, instance.args);
        sinkCycles =
            platform.kind == perf::PlatformKind::CpuCacheOnly
                ? referenceCycles<perf::CpuModel>(platform, launch)
                : referenceCycles<perf::GpuModel>(platform, launch);
      }
      apps::Instance instance = app.makeInstance(apps::Scale::Test);
      const perf::PerfEstimate est =
          perf::estimate(platform, *kernel, instance.range, instance.args,
                         1, 8);
      EXPECT_EQ(est.cycles, sinkCycles) << id << " on " << platform.name;
    }
  }
}

/// Bit patterns of one estimate's fields (doubles as their IEEE-754
/// bits), for one app × platform × {original, transformed} at test scale.
struct PinnedEstimate {
  const char* app;
  const char* platform;
  bool transformed;
  std::uint64_t cycles;
  std::uint64_t transactions;
  std::uint64_t spmCycles;
  std::uint64_t memoryCycles;
  std::uint64_t l1HitRate;
  std::uint64_t counters;  // InstCounters::total()
};

/// Source form of one table row, so a mismatch prints a drop-in table.
std::string formatPinned(const PinnedEstimate& r) {
  char line[256];
  std::snprintf(line, sizeof line,
                "    {\"%s\", \"%s\", %s, 0x%016" PRIx64 ", %" PRIu64
                ", 0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64
                ", %" PRIu64 "},\n",
                r.app, r.platform, r.transformed ? "true" : "false", r.cycles,
                r.transactions, r.spmCycles, r.memoryCycles, r.l1HitRate,
                r.counters);
  return line;
}

// Generated by EveryTableIEstimateMatchesThePinnedTable itself (it prints
// the actual table on a mismatch). A change to the interpreter, the
// decoder or a platform model that moves any estimate by one bit fails
// here; regenerate the table only for an intended change of the model.
const PinnedEstimate kPinnedEstimates[] = {
    {"AMD-SS", "Fermi", false, 0x40f8ea5051eb851f, 4145, 0x40b0800000000000, 0x0000000000000000, 0x0000000000000000, 1041478},
    {"AMD-SS", "Fermi", true, 0x40fc90c000000000, 6129, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 1029190},
    {"AMD-SS", "Kepler", false, 0x40f61d63d70a3d70, 4145, 0x40a8c00000000000, 0x0000000000000000, 0x0000000000000000, 1041478},
    {"AMD-SS", "Kepler", true, 0x40f6544000000000, 6129, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 1029190},
    {"AMD-SS", "Tahiti", false, 0x40f454775c28f5c2, 3185, 0x40a1000000000000, 0x0000000000000000, 0x0000000000000000, 1041478},
    {"AMD-SS", "Tahiti", true, 0x40f196b4cccccccd, 4145, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 1029190},
    {"AMD-SS", "SNB", false, 0x40f9d9e33333317a, 0, 0x0000000000000000, 0x4117837666666915, 0x3fefdba24c90fc1b, 1041478},
    {"AMD-SS", "SNB", true, 0x40f71016666664b6, 0, 0x0000000000000000, 0x41171c433333359f, 0x3fefdc0dde0fb12d, 1029190},
    {"AMD-SS", "Nehalem", false, 0x410d6dea66665f78, 0, 0x0000000000000000, 0x411c4718000008e4, 0x3fefdc97b1e03f44, 1041478},
    {"AMD-SS", "Nehalem", true, 0x410a4dfd99999248, 0, 0x0000000000000000, 0x411bda980000089d, 0x3fefdc8a6e54c933, 1029190},
    {"AMD-SS", "MIC", false, 0x41051cd333333333, 0, 0x0000000000000000, 0x4113de2400000000, 0x3fefd66bf5b1feec, 1041478},
    {"AMD-SS", "MIC", true, 0x41048e00cccccccc, 0, 0x0000000000000000, 0x41130e3200000000, 0x3fefd960c493ad0a, 1029190},
    {"AMD-MT", "Fermi", false, 0x40ea800000000000, 1536, 0x40a0000000000000, 0x0000000000000000, 0x0000000000000000, 150528},
    {"AMD-MT", "Fermi", true, 0x40ea800000000000, 1536, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 81920},
    {"AMD-MT", "Kepler", false, 0x40e5800000000000, 1536, 0x4098000000000000, 0x0000000000000000, 0x0000000000000000, 150528},
    {"AMD-MT", "Kepler", true, 0x40e5800000000000, 1536, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 81920},
    {"AMD-MT", "Tahiti", false, 0x40dd000000000000, 1024, 0x40a0000000000000, 0x0000000000000000, 0x0000000000000000, 150528},
    {"AMD-MT", "Tahiti", true, 0x40dd000000000000, 1024, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 81920},
    {"AMD-MT", "SNB", false, 0x40e1ad19999999e2, 0, 0x0000000000000000, 0x41163333333333c1, 0x3fea000000000000, 150528},
    {"AMD-MT", "SNB", true, 0x40d4dd6666666643, 0, 0x0000000000000000, 0x410ccccccccccc84, 0x3fe8000000000000, 81920},
    {"AMD-MT", "Nehalem", false, 0x40f4a60000000093, 0, 0x0000000000000000, 0x411a6ccccccccde1, 0x3feb000000000000, 150528},
    {"AMD-MT", "Nehalem", true, 0x40ebc0cccccccd43, 0, 0x0000000000000000, 0x41144ccccccccce8, 0x3fe8000000000000, 81920},
    {"AMD-MT", "MIC", false, 0x40fa61999999999a, 0, 0x0000000000000000, 0x4121040000000000, 0x3fea000000000000, 150528},
    {"AMD-MT", "MIC", true, 0x40f5c20000000000, 0, 0x0000000000000000, 0x4116700000000000, 0x3fe8000000000000, 81920},
    {"NVD-MT", "Fermi", false, 0x40d1bf5c28f5c28e, 512, 0x40a2000000000000, 0x0000000000000000, 0x0000000000000000, 114688},
    {"NVD-MT", "Fermi", true, 0x40e7800000000000, 2304, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 90112},
    {"NVD-MT", "Kepler", false, 0x40cef8a3d70a3d73, 512, 0x409b000000000000, 0x0000000000000000, 0x0000000000000000, 114688},
    {"NVD-MT", "Kepler", true, 0x40e2800000000000, 2304, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 90112},
    {"NVD-MT", "Tahiti", false, 0x40d1170a3d70a3d7, 512, 0x4094000000000000, 0x0000000000000000, 0x0000000000000000, 114688},
    {"NVD-MT", "Tahiti", true, 0x40d2400000000000, 1280, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 90112},
    {"NVD-MT", "SNB", false, 0x40d9d0999999996a, 0, 0x0000000000000000, 0x40fd6666666665a4, 0x3fee800000000000, 114688},
    {"NVD-MT", "SNB", true, 0x40c6ee0000000000, 0, 0x0000000000000000, 0x40f2000000000001, 0x3fee000000000000, 90112},
    {"NVD-MT", "Nehalem", false, 0x40ed9c0000000134, 0, 0x0000000000000000, 0x41016999999998bd, 0x3feec00000000000, 114688},
    {"NVD-MT", "Nehalem", true, 0x40dc419999999951, 0, 0x0000000000000000, 0x40f87fffffffff74, 0x3fee000000000000, 90112},
    {"NVD-MT", "MIC", false, 0x40f508199999999a, 0, 0x0000000000000000, 0x4103440000000000, 0x3fee800000000000, 114688},
    {"NVD-MT", "MIC", true, 0x40f1d76666666666, 0, 0x0000000000000000, 0x40f8b00000000000, 0x3fee000000000000, 90112},
    {"AMD-RG", "Fermi", false, 0x40d8800000000000, 1024, 0x4088000000000000, 0x0000000000000000, 0x0000000000000000, 118784},
    {"AMD-RG", "Fermi", true, 0x40e0c00000000000, 1536, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 94208},
    {"AMD-RG", "Kepler", false, 0x40d3800000000000, 1024, 0x4082000000000000, 0x0000000000000000, 0x0000000000000000, 118784},
    {"AMD-RG", "Kepler", true, 0x40da800000000000, 1536, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 94208},
    {"AMD-RG", "Tahiti", false, 0x40d2a947ae147ade, 1024, 0x4080000000000000, 0x0000000000000000, 0x0000000000000000, 118784},
    {"AMD-RG", "Tahiti", true, 0x40cf000000000000, 1024, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 94208},
    {"AMD-RG", "SNB", false, 0x40e042cccccccd23, 0, 0x0000000000000000, 0x40fa66666666660b, 0x3fede00000000000, 118784},
    {"AMD-RG", "SNB", true, 0x40d368cccccccccc, 0, 0x0000000000000000, 0x40f3f33333333320, 0x3fec000000000000, 94208},
    {"AMD-RG", "Nehalem", false, 0x40f29c33333333d3, 0, 0x0000000000000000, 0x41006266666665c0, 0x3fee700000000000, 118784},
    {"AMD-RG", "Nehalem", true, 0x40e6a00000000032, 0, 0x0000000000000000, 0x40f9fccccccccc68, 0x3fed000000000000, 94208},
    {"AMD-RG", "MIC", false, 0x4100846333333333, 0, 0x0000000000000000, 0x410dbfd400000000, 0x3fed888000000000, 118784},
    {"AMD-RG", "MIC", true, 0x40ff9bcccccccccc, 0, 0x0000000000000000, 0x4107300000000000, 0x3fec000000000000, 94208},
    {"AMD-MM", "Fermi", false, 0x410faeb851eb851f, 8832, 0x40c1000000000000, 0x0000000000000000, 0x0000000000000000, 2605056},
    {"AMD-MM", "Fermi", true, 0x410c180000000000, 12416, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 2379776},
    {"AMD-MM", "Kepler", false, 0x410c3ca3d70a3d71, 8832, 0x40b9800000000000, 0x0000000000000000, 0x0000000000000000, 2605056},
    {"AMD-MM", "Kepler", true, 0x410749c28f5c28f7, 12416, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 2379776},
    {"AMD-MM", "Tahiti", false, 0x410ad28f5c28f5c2, 8832, 0x40b2000000000000, 0x0000000000000000, 0x0000000000000000, 2605056},
    {"AMD-MM", "Tahiti", true, 0x410455c28f5c28f7, 10368, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 2379776},
    {"AMD-MM", "SNB", false, 0x411f22a333332ff8, 0, 0x0000000000000000, 0x4126eaccccccc3a1, 0x3fefdaa0b3630958, 2605056},
    {"AMD-MM", "SNB", true, 0x4118036ffffffd73, 0, 0x0000000000000000, 0x41254dfffffff9bd, 0x3fefdc47711dc477, 2379776},
    {"AMD-MM", "Nehalem", false, 0x41218a3999999bf8, 0, 0x0000000000000000, 0x412b64999999abe8, 0x3fefdaa0b3630958, 2605056},
    {"AMD-MM", "Nehalem", true, 0x411b110cccccd17f, 0, 0x0000000000000000, 0x4129670000001134, 0x3fefdc47711dc477, 2379776},
    {"AMD-MM", "MIC", false, 0x4122156ccccccccc, 0, 0x0000000000000000, 0x41239f0000000000, 0x3fefdaa0b3630958, 2605056},
    {"AMD-MM", "MIC", true, 0x411dff7999999999, 0, 0x0000000000000000, 0x4122318000000000, 0x3fefdc47711dc477, 2379776},
    {"NVD-MM-A", "Fermi", false, 0x410efd70a3d70a3e, 1152, 0x40d1000000000000, 0x0000000000000000, 0x0000000000000000, 2445312},
    {"NVD-MM-A", "Fermi", true, 0x410d1851eb851eb8, 8832, 0x40c1000000000000, 0x0000000000000000, 0x0000000000000000, 2369536},
    {"NVD-MM-A", "Kepler", false, 0x410b7947ae147ae1, 1152, 0x40c9800000000000, 0x0000000000000000, 0x0000000000000000, 2445312},
    {"NVD-MM-A", "Kepler", true, 0x4109efd70a3d70a2, 8832, 0x40b9800000000000, 0x0000000000000000, 0x0000000000000000, 2369536},
    {"NVD-MM-A", "Tahiti", false, 0x410a851eb851eb87, 1152, 0x40ca000000000000, 0x0000000000000000, 0x0000000000000000, 2445312},
    {"NVD-MM-A", "Tahiti", true, 0x4108cf5c28f5c290, 8832, 0x40b2000000000000, 0x0000000000000000, 0x0000000000000000, 2369536},
    {"NVD-MM-A", "SNB", false, 0x411e51d666666205, 0, 0x0000000000000000, 0x4128879999998c20, 0x3fefd9289b5d928a, 2445312},
    {"NVD-MM-A", "SNB", true, 0x411d56a333332ff8, 0, 0x0000000000000000, 0x4126eaccccccc3a1, 0x3fefdaa0b3630958, 2369536},
    {"NVD-MM-A", "Nehalem", false, 0x41211e53333335d4, 0, 0x0000000000000000, 0x412d62333333476e, 0x3fefd9289b5d928a, 2445312},
    {"NVD-MM-A", "Nehalem", true, 0x41208d3999999bf8, 0, 0x0000000000000000, 0x412b64999999abe8, 0x3fefdaa0b3630958, 2369536},
    {"NVD-MM-A", "MIC", false, 0x412187e99999999a, 0, 0x0000000000000000, 0x41250c8000000000, 0x3fefd9289b5d928a, 2445312},
    {"NVD-MM-A", "MIC", true, 0x4121016ccccccccc, 0, 0x0000000000000000, 0x41239f0000000000, 0x3fefdaa0b3630958, 2369536},
    {"NVD-MM-B", "Fermi", false, 0x410efd70a3d70a3e, 1152, 0x40d1000000000000, 0x0000000000000000, 0x0000000000000000, 2445312},
    {"NVD-MM-B", "Fermi", true, 0x410d0147ae147ae1, 4736, 0x40c1000000000000, 0x0000000000000000, 0x0000000000000000, 2361344},
    {"NVD-MM-B", "Kepler", false, 0x410b7947ae147ae1, 1152, 0x40c9800000000000, 0x0000000000000000, 0x0000000000000000, 2445312},
    {"NVD-MM-B", "Kepler", true, 0x4109db5c28f5c28f, 4736, 0x40b9800000000000, 0x0000000000000000, 0x0000000000000000, 2361344},
    {"NVD-MM-B", "Tahiti", false, 0x410a851eb851eb87, 1152, 0x40ca000000000000, 0x0000000000000000, 0x0000000000000000, 2445312},
    {"NVD-MM-B", "Tahiti", true, 0x41093d70a3d70a3f, 2688, 0x40c1000000000000, 0x0000000000000000, 0x0000000000000000, 2361344},
    {"NVD-MM-B", "SNB", false, 0x411e51d666666205, 0, 0x0000000000000000, 0x4128879999998c20, 0x3fefd9289b5d928a, 2445312},
    {"NVD-MM-B", "SNB", true, 0x411d46a333332fe0, 0, 0x0000000000000000, 0x4126eaccccccc38e, 0x3fefdaa0b3630958, 2361344},
    {"NVD-MM-B", "Nehalem", false, 0x41211e53333335d4, 0, 0x0000000000000000, 0x412d62333333476e, 0x3fefd9289b5d928a, 2445312},
    {"NVD-MM-B", "Nehalem", true, 0x4120846ccccccf27, 0, 0x0000000000000000, 0x412b64999999abe6, 0x3fefdaa0b3630958, 2361344},
    {"NVD-MM-B", "MIC", false, 0x412187e99999999a, 0, 0x0000000000000000, 0x41250c8000000000, 0x3fefd9289b5d928a, 2445312},
    {"NVD-MM-B", "MIC", true, 0x4120f7d333333333, 0, 0x0000000000000000, 0x41239f0000000000, 0x3fefdaa0b3630958, 2361344},
    {"NVD-MM-AB", "Fermi", false, 0x410efd70a3d70a3e, 1152, 0x40d1000000000000, 0x0000000000000000, 0x0000000000000000, 2445312},
    {"NVD-MM-AB", "Fermi", true, 0x410c180000000000, 12416, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 2277376},
    {"NVD-MM-AB", "Kepler", false, 0x410b7947ae147ae1, 1152, 0x40c9800000000000, 0x0000000000000000, 0x0000000000000000, 2445312},
    {"NVD-MM-AB", "Kepler", true, 0x4106806666666668, 12416, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 2277376},
    {"NVD-MM-AB", "Tahiti", false, 0x410a851eb851eb87, 1152, 0x40ca000000000000, 0x0000000000000000, 0x0000000000000000, 2445312},
    {"NVD-MM-AB", "Tahiti", true, 0x410375c28f5c28f7, 10368, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 2277376},
    {"NVD-MM-AB", "SNB", false, 0x411e51d666666205, 0, 0x0000000000000000, 0x4128879999998c20, 0x3fefd9289b5d928a, 2445312},
    {"NVD-MM-AB", "SNB", true, 0x41173b6ffffffd73, 0, 0x0000000000000000, 0x41254dfffffff9bd, 0x3fefdc47711dc477, 2277376},
    {"NVD-MM-AB", "Nehalem", false, 0x41211e53333335d4, 0, 0x0000000000000000, 0x412d62333333476e, 0x3fefd9289b5d928a, 2445312},
    {"NVD-MM-AB", "Nehalem", true, 0x411a350cccccd17f, 0, 0x0000000000000000, 0x4129670000001134, 0x3fefdc47711dc477, 2277376},
    {"NVD-MM-AB", "MIC", false, 0x412187e99999999a, 0, 0x0000000000000000, 0x41250c8000000000, 0x3fefd9289b5d928a, 2445312},
    {"NVD-MM-AB", "MIC", true, 0x411d0f7999999999, 0, 0x0000000000000000, 0x4122318000000000, 0x3fefdc47711dc477, 2277376},
    {"NVD-NBody", "Fermi", false, 0x4110228f5c28f5c2, 192, 0x40b1000000000000, 0x0000000000000000, 0x0000000000000000, 2866176},
    {"NVD-NBody", "Fermi", true, 0x41100feb851eb852, 2112, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 2924032},
    {"NVD-NBody", "Kepler", false, 0x410ca370a3d70a3e, 192, 0x40a9800000000000, 0x0000000000000000, 0x0000000000000000, 2866176},
    {"NVD-NBody", "Kepler", true, 0x410c8e147ae147ae, 2112, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 2924032},
    {"NVD-NBody", "Tahiti", false, 0x410945c28f5c28f6, 192, 0x40a2000000000000, 0x0000000000000000, 0x0000000000000000, 2866176},
    {"NVD-NBody", "Tahiti", true, 0x4108fc51eb851eb9, 1088, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 2924032},
    {"NVD-NBody", "SNB", false, 0x4128181e666666f2, 0, 0x0000000000000000, 0x4106ca6666666e65, 0x3fefd1cdf4737d1d, 2866176},
    {"NVD-NBody", "SNB", true, 0x4127d25199999a2c, 0, 0x0000000000000000, 0x41055d999999a148, 0x3fefd84f613d84f6, 2924032},
    {"NVD-NBody", "Nehalem", false, 0x412ab73999999a40, 0, 0x0000000000000000, 0x410b606666666e57, 0x3fefd1cdf4737d1d, 2866176},
    {"NVD-NBody", "Nehalem", true, 0x412a616ccccccd77, 0, 0x0000000000000000, 0x41097eccccccd41f, 0x3fefd84f613d84f6, 2924032},
    {"NVD-NBody", "MIC", false, 0x412dd3f999999999, 0, 0x0000000000000000, 0x41049a0000000000, 0x3fefd1cdf4737d1d, 2866176},
    {"NVD-NBody", "MIC", true, 0x412dc7e333333333, 0, 0x0000000000000000, 0x4102df0000000000, 0x3fefd84f613d84f6, 2924032},
    {"PAB-ST", "Fermi", false, 0x40e1153d70a3d70a, 1328, 0x40ac800000000000, 0x0000000000000000, 0x0000000000000000, 272384},
    {"PAB-ST", "Fermi", true, 0x40e7658000000000, 2272, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 263168},
    {"PAB-ST", "Kepler", false, 0x40dd7cc28f5c28f4, 1328, 0x40a5600000000000, 0x0000000000000000, 0x0000000000000000, 272384},
    {"PAB-ST", "Kepler", true, 0x40e26e8000000000, 2272, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 263168},
    {"PAB-ST", "Tahiti", false, 0x40dd2eb851eb851f, 1328, 0x40a4800000000000, 0x0000000000000000, 0x0000000000000000, 272384},
    {"PAB-ST", "Tahiti", true, 0x40dd270000000000, 2272, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 263168},
    {"PAB-ST", "SNB", false, 0x40e52f1999999944, 0, 0x0000000000000000, 0x4106838666666528, 0x3feeb0f0f0f0f0f1, 272384},
    {"PAB-ST", "SNB", true, 0x40dc23cccccccc73, 0, 0x0000000000000000, 0x40fe5d733333326f, 0x3fee955555555555, 263168},
    {"PAB-ST", "Nehalem", false, 0x40f85446666667be, 0, 0x0000000000000000, 0x410a874ffffffdb7, 0x3feed87878787878, 272384},
    {"PAB-ST", "Nehalem", true, 0x40f0bea00000010c, 0, 0x0000000000000000, 0x4103ed8333333210, 0x3fee955555555555, 263168},
    {"PAB-ST", "MIC", false, 0x40fa13e4cccccccd, 0, 0x0000000000000000, 0x4112446000000000, 0x3feeb0f0f0f0f0f1, 272384},
    {"PAB-ST", "MIC", true, 0x40f6e8f99999999a, 0, 0x0000000000000000, 0x410b8b0000000000, 0x3fee955555555555, 263168},
    {"ROD-SC", "Fermi", false, 0x40dc19570a3d70a4, 800, 0x4090800000000000, 0x0000000000000000, 0x0000000000000000, 260864},
    {"ROD-SC", "Fermi", true, 0x40e0300000000000, 1056, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 273664},
    {"ROD-SC", "Kepler", false, 0x40d6f0747ae147ae, 800, 0x4088c00000000000, 0x0000000000000000, 0x0000000000000000, 260864},
    {"ROD-SC", "Kepler", true, 0x40da2c147ae147ae, 1056, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 273664},
    {"ROD-SC", "Tahiti", false, 0x40d481cccccccccd, 800, 0x4081000000000000, 0x0000000000000000, 0x0000000000000000, 260864},
    {"ROD-SC", "Tahiti", true, 0x40d2f44cccccccce, 800, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 273664},
    {"ROD-SC", "SNB", false, 0x40e33ab333333384, 0, 0x0000000000000000, 0x411127b333333382, 0x3fdf03d226357e17, 260864},
    {"ROD-SC", "SNB", true, 0x40e4a4b3333333bf, 0, 0x0000000000000000, 0x4115a080000000fe, 0x3f7f07c1f07c1f08, 273664},
    {"ROD-SC", "Nehalem", false, 0x40f62db333333334, 0, 0x0000000000000000, 0x4115104666666666, 0x3fdf07a44c6afc2e, 260864},
    {"ROD-SC", "Nehalem", true, 0x40f78873333331e6, 0, 0x0000000000000000, 0x4119a62ccccccb07, 0x3f7f07c1f07c1f08, 273664},
    {"ROD-SC", "MIC", false, 0x40f94684cccccccd, 0, 0x0000000000000000, 0x41155c8000000000, 0x3fdf03d226357e17, 260864},
    {"ROD-SC", "MIC", true, 0x40f9f8accccccccd, 0, 0x0000000000000000, 0x4119052000000000, 0x3f7f07c1f07c1f08, 273664},
};

/// kPinnedEstimates rendered as formatPinned rows.
std::string pinnedTable() {
  std::string table;
  for (const PinnedEstimate& row : kPinnedEstimates) table += formatPinned(row);
  return table;
}

/// One table row of `est`, the estimate of `app` on `platform`.
std::string pinnedRow(const apps::Application& app,
                      const perf::PlatformSpec& platform, bool transformed,
                      const perf::PerfEstimate& est) {
  return formatPinned({app.id().c_str(), platform.name.c_str(), transformed,
                       std::bit_cast<std::uint64_t>(est.cycles),
                       est.transactions,
                       std::bit_cast<std::uint64_t>(est.spmCycles),
                       std::bit_cast<std::uint64_t>(est.memoryCycles),
                       std::bit_cast<std::uint64_t>(est.l1HitRate),
                       est.counters.total()});
}

TEST(ParallelEstimation, EveryTableIEstimateMatchesThePinnedTable) {
  std::string actual;
  for (const auto& app : apps::allApplications()) {
    KernelPair pair = prepareKernelPair(*app);
    for (const perf::PlatformSpec& platform : perf::allPlatforms()) {
      for (const bool transformed : {false, true}) {
        apps::Instance instance = app->makeInstance(apps::Scale::Test);
        const perf::PerfEstimate est = perf::estimate(
            platform,
            transformed ? *pair.transformedKernel : *pair.originalKernel,
            instance.range, instance.args, instance.benchSampleStride, 0);
        actual += pinnedRow(*app, platform, transformed, est);
      }
    }
  }
  EXPECT_TRUE(actual == pinnedTable())
      << "estimates moved; the actual table is:\n"
      << actual;
}

TEST(ParallelEstimation, OneExecutionPricesEveryPlatform) {
  // One execution per kernel version, priced by all six platform models at
  // once, must rebuild the pinned table bit for bit at any thread count.
  const std::vector<perf::PlatformSpec> platforms = perf::allPlatforms();
  for (const unsigned threads : {1U, 4U}) {
    std::string actual;
    for (const auto& app : apps::allApplications()) {
      KernelPair pair = prepareKernelPair(*app);
      std::vector<perf::PerfEstimate> byVariant[2];
      for (const bool transformed : {false, true}) {
        apps::Instance instance = app->makeInstance(apps::Scale::Test);
        byVariant[transformed] = perf::estimate(
            platforms,
            transformed ? *pair.transformedKernel : *pair.originalKernel,
            instance.range, instance.args, instance.benchSampleStride,
            threads);
        ASSERT_EQ(byVariant[transformed].size(), platforms.size());
      }
      for (std::size_t p = 0; p < platforms.size(); ++p) {
        for (const bool transformed : {false, true}) {
          actual += pinnedRow(*app, platforms[p], transformed,
                              byVariant[transformed][p]);
        }
      }
    }
    EXPECT_TRUE(actual == pinnedTable())
        << "threads=" << threads << ": the six-platform estimates differ "
        << "from the pinned table; they are:\n"
        << actual;
  }
}

}  // namespace
}  // namespace grover
