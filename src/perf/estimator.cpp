#include "perf/estimator.h"

#include <algorithm>
#include <thread>

#include "perf/traced_driver.h"

namespace grover::perf {

PerfEstimate estimate(const PlatformSpec& platform, ir::Function& fn,
                      const rt::NDRange& range,
                      std::vector<rt::KernelArg> args,
                      std::uint32_t sampleStride, unsigned threads) {
  return estimate(std::span(&platform, 1), fn, range, std::move(args),
                  sampleStride, threads)
      .front();
}

std::vector<PerfEstimate> estimate(std::span<const PlatformSpec> platforms,
                                   ir::Function& fn, const rt::NDRange& range,
                                   std::vector<rt::KernelArg> args,
                                   std::uint32_t sampleStride,
                                   unsigned threads) {
  rt::Launch launch(fn, range, std::move(args));
  if (sampleStride > 1) launch.setGroupSampling(sampleStride);
  if (threads == 0) {
    threads = std::max(1U, std::thread::hardware_concurrency());
  }
  std::vector<TraceModel> models;
  models.reserve(platforms.size());
  for (const PlatformSpec& platform : platforms) {
    models.push_back(makeTraceModel(platform));
  }
  runTracedLaunch(models, launch.image(), launch.sampledGroups(), threads);

  std::vector<PerfEstimate> out(models.size());
  for (std::size_t p = 0; p < models.size(); ++p) {
    PerfEstimate& est = out[p];
    if (const auto* cpu = std::get_if<CpuModel>(&models[p])) {
      est.cycles = cpu->totalCycles() * sampleStride;
      est.counters = cpu->counters();
      est.memoryCycles = cpu->memoryCycles();
      est.l1HitRate = cpu->l1HitRate();
    } else {
      const GpuModel& gpu = std::get<GpuModel>(models[p]);
      est.cycles = gpu.totalCycles() * sampleStride;
      est.counters = gpu.counters();
      est.transactions = gpu.globalTransactions();
      est.spmCycles = gpu.spmCyclesTotal();
    }
  }
  return out;
}

double normalizedPerformance(double cyclesWithLM, double cyclesWithoutLM) {
  if (cyclesWithoutLM <= 0) return 0;
  return cyclesWithLM / cyclesWithoutLM;
}

Outcome classify(double np, double threshold) {
  if (np > 1.0 + threshold) return Outcome::Gain;
  if (np < 1.0 - threshold) return Outcome::Loss;
  return Outcome::Similar;
}

const char* toString(Outcome o) {
  switch (o) {
    case Outcome::Gain: return "gain";
    case Outcome::Loss: return "loss";
    case Outcome::Similar: return "similar";
  }
  return "?";
}

}  // namespace grover::perf
