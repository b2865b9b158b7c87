// Traced-launch throughput of the parallel estimation pipeline.
//
// Baseline: the seed's serial path — the tree-walking ReferenceExecutor
// pushing every event through the virtual TraceSink interface, recorded
// into one GroupTrace per group and fed straight into the platform model.
// Against it: the pre-decoded GroupExecutor with buffered GroupTraces and
// the two-phase digest/merge driver (perf/traced_driver.h), swept over
// 1/2/4/8 host threads.
//
// Reports groups/second per configuration and the speedup over the seed
// path, and asserts the estimates stay bit-identical while doing so.
// Results land in BENCH_parallel_estimation.json.
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "bench_common.h"
#include "perf/cpu_model.h"
#include "perf/estimator.h"
#include "perf/traced_driver.h"
#include "rt/ref_interpreter.h"

namespace {

using namespace grover;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Measurement {
  double groupsPerSec = 0;
  double cycles = 0;  // model estimate, for cross-config identity checks
};

/// Best-of-`reps` wall time for one full traced estimation of `groups`.
template <typename Run>
Measurement measure(std::size_t numGroups, int reps, const Run& run) {
  Measurement best;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    const double cycles = run();
    const double secs = secondsSince(start);
    const double gps = static_cast<double>(numGroups) / secs;
    if (gps > best.groupsPerSec) best.groupsPerSec = gps;
    if (r == 0) {
      best.cycles = cycles;
    } else if (best.cycles != cycles) {
      std::cerr << "FATAL: estimate changed between repetitions\n";
      std::exit(1);
    }
  }
  return best;
}

}  // namespace

int main() {
  using namespace grover::bench;

  const std::vector<std::string> appIds = {"NVD-MT", "NVD-MM-A", "PAB-ST"};
  const std::vector<unsigned> threadCounts = {1, 2, 4, 8};
  const perf::PlatformSpec platform = perf::snb();
  // Best-of-5: on a loaded host the parallel configurations are the most
  // sensitive to scheduler noise, so take enough samples to find a quiet one.
  const int reps = 5;

  std::cout << "=== parallel trace-driven estimation throughput ("
            << platform.name << " model) ===\n\n";
  std::ostringstream json;
  json << "{\n";

  bool firstApp = true;
  for (const std::string& id : appIds) {
    const apps::Application& app = apps::applicationById(id);
    Program program = compile(app.source());
    ir::Function* kernel = program.kernel(app.kernelName());
    apps::Instance instance = app.makeInstance(apps::Scale::Bench);
    rt::Launch launch(*kernel, instance.range, instance.args);
    if (instance.benchSampleStride > 1) {
      launch.setGroupSampling(instance.benchSampleStride);
    }
    const auto groups = launch.sampledGroups();
    const rt::KernelImage& image = launch.image();

    // Seed serial path: tree-walker + virtual sink pushes.
    const Measurement seed = measure(groups.size(), reps, [&] {
      perf::CpuModel model(platform);
      rt::GroupTraceRecorder recorder;
      rt::ReferenceExecutor exec(image, &recorder);
      for (std::size_t dense = 0; dense < groups.size(); ++dense) {
        recorder.trace.clear();
        exec.runGroup(groups[dense]);
        model.mergeGroup(model.digestGroup(
            model.shardOf(static_cast<std::uint32_t>(dense)),
            recorder.trace));
      }
      return model.totalCycles();
    });

    std::cout << padRight(id, 10) << " " << groups.size() << " groups\n";
    std::cout << "  seed serial      " << fixed(seed.groupsPerSec, 1)
              << " groups/s\n";

    if (!firstApp) json << ",\n";
    firstApp = false;
    json << "  \"" << id << "\": {\n"
         << "    \"groups\": " << groups.size() << ",\n"
         << "    \"seed_groups_per_sec\": " << seed.groupsPerSec << ",\n"
         << "    \"threads\": {";

    bool firstThread = true;
    for (unsigned t : threadCounts) {
      const Measurement m = measure(groups.size(), reps, [&] {
        perf::TraceModel model = perf::makeTraceModel(platform);
        perf::runTracedLaunch(std::span(&model, 1), image, groups, t);
        return std::get<perf::CpuModel>(model).totalCycles();
      });
      if (m.cycles != seed.cycles) {
        std::cerr << "FATAL: " << id << " threads=" << t
                  << " diverges from the seed estimate (" << m.cycles
                  << " vs " << seed.cycles << ")\n";
        return 1;
      }
      const double speedup = m.groupsPerSec / seed.groupsPerSec;
      std::cout << "  decoded threads=" << t << "  "
                << fixed(m.groupsPerSec, 1) << " groups/s  ("
                << fixed(speedup, 2) << "x seed)\n";
      if (!firstThread) json << ", ";
      firstThread = false;
      json << "\"" << t << "\": {\"groups_per_sec\": " << m.groupsPerSec
           << ", \"speedup_vs_seed\": " << speedup << "}";
    }
    json << "}\n  }";
    std::cout << "\n";
  }

  json << "\n}\n";
  writeBenchJson("parallel_estimation", json.str());
  return 0;
}
