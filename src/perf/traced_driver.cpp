#include "perf/traced_driver.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>

#include "rt/trace.h"
#include "support/thread_pool.h"

namespace grover::perf {

namespace {

/// Run `loop(t)` on the calling thread (t = 0) and on `threads` - 1 pool
/// workers, and return once all of them have finished. The caller runs
/// the same work-stealing loop as the workers, so it never sleeps while
/// work remains. Rethrows the first exception only after every worker is
/// done with the state `loop` refers to.
template <typename Loop>
void fanOut(ThreadPool& pool, unsigned threads, const Loop& loop) {
  for (unsigned t = 1; t < threads; ++t) {
    pool.submit([&loop, t] { loop(t); });
  }
  std::exception_ptr error;
  try {
    loop(0);
  } catch (...) {
    error = std::current_exception();
  }
  pool.waitIdle();
  if (error) std::rethrow_exception(error);
}

/// Phases B and C of one wave for one model: digest `traces[0, wave)`,
/// whose first group has dense index `first`, then merge the digests
/// serially in dense order.
template <typename Model>
void digestAndMerge(Model& model, const std::vector<rt::GroupTrace>& traces,
                    std::size_t wave, std::size_t first, ThreadPool& pool,
                    unsigned threads) {
  std::vector<typename Model::GroupDigest> digests(wave);
  const unsigned shards = model.digestShards();
  if (shards > 0) {
    // Sharded models need each shard's groups digested in dense order on
    // one task (private cache state).
    std::vector<std::vector<std::size_t>> perShard(shards);
    for (std::size_t i = 0; i < wave; ++i) {
      perShard[model.shardOf(static_cast<std::uint32_t>(first + i))]
          .push_back(i);
    }
    std::vector<unsigned> jobs;
    for (unsigned s = 0; s < shards; ++s) {
      if (!perShard[s].empty()) jobs.push_back(s);
    }
    std::atomic<std::size_t> nextJob{0};
    fanOut(pool, threads, [&](unsigned) {
      for (;;) {
        const std::size_t j = nextJob.fetch_add(1);
        if (j >= jobs.size()) return;
        const unsigned s = jobs[j];
        for (const std::size_t i : perShard[s]) {
          digests[i] = model.digestGroup(s, traces[i]);
        }
      }
    });
  } else {
    // Stateless models stripe the wave across the pool.
    fanOut(pool, threads, [&](unsigned t) {
      for (std::size_t i = t; i < wave; i += threads) {
        digests[i] = model.digestGroup(0, traces[i]);
      }
    });
  }
  for (const auto& digest : digests) model.mergeGroup(digest);
}

}  // namespace

TraceModel makeTraceModel(const PlatformSpec& platform) {
  if (platform.kind == PlatformKind::CpuCacheOnly) {
    return TraceModel(std::in_place_type<CpuModel>, platform);
  }
  return TraceModel(std::in_place_type<GpuModel>, platform);
}

rt::InstCounters runTracedLaunch(
    std::span<TraceModel> models, const rt::KernelImage& image,
    const std::vector<std::array<std::uint32_t, 3>>& groups,
    unsigned threads) {
  threads = std::min(threads,
                     std::max(1U, std::thread::hardware_concurrency()));
  if (threads <= 1) {
    // Inline pipeline: same digest/merge call sequence as the parallel
    // path, one group at a time.
    rt::GroupExecutor exec(image);
    rt::GroupTrace trace;
    exec.setTrace(&trace);
    for (std::size_t dense = 0; dense < groups.size(); ++dense) {
      exec.runGroup(groups[dense]);
      for (TraceModel& model : models) {
        std::visit(
            [&](auto& m) {
              m.mergeGroup(m.digestGroup(
                  m.shardOf(static_cast<std::uint32_t>(dense)), trace));
            },
            model);
      }
    }
    return exec.totalCounters();
  }

  std::vector<std::unique_ptr<rt::GroupExecutor>> execs;
  execs.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    execs.push_back(std::make_unique<rt::GroupExecutor>(image));
  }
  std::vector<rt::GroupTrace> traces;
  ThreadPool pool(threads - 1);
  std::size_t done = 0;
  std::size_t avgBytes = 0;
  while (done < groups.size()) {
    const std::size_t wave =
        rt::nextTraceWave(groups.size() - done, threads, avgBytes);
    if (traces.size() < wave) traces.resize(wave);

    // Phase A: execute the wave's groups into private trace buffers.
    std::atomic<std::size_t> next{0};
    fanOut(pool, threads, [&](unsigned t) {
      rt::GroupExecutor& exec = *execs[t];
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= wave) return;
        exec.setTrace(&traces[i]);
        exec.runGroup(groups[done + i]);
      }
    });

    // Phases B and C, one model at a time.
    for (TraceModel& model : models) {
      std::visit(
          [&](auto& m) {
            digestAndMerge(m, traces, wave, done, pool, threads);
          },
          model);
    }

    std::size_t bytes = 0;
    for (std::size_t i = 0; i < wave; ++i) bytes += traces[i].byteSize();
    avgBytes = bytes / wave;
    done += wave;
  }

  rt::InstCounters total;
  for (const auto& e : execs) total += e->totalCounters();
  return total;
}

}  // namespace grover::perf
