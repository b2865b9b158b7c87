#include "perf/cpu_model.h"

#include <algorithm>

namespace grover::perf {

namespace {
// Flat-address windows for per-thread local/private arenas. Global buffer
// traffic starts at rt::bufferBaseAddress(0) = 256 MiB, so the windows
// below never collide with it.
constexpr std::uint64_t kLocalWindow = 0x0100'0000;   // 16 MiB per thread
constexpr std::uint64_t kLocalBase = 0x0000'0000;
constexpr std::uint64_t kPrivateBase = 0x0800'0000;   // offset inside window
}  // namespace

std::uint64_t CpuModel::remapAddress(unsigned tid,
                                     const rt::MemAccess& access) const {
  switch (access.space) {
    case ir::AddrSpace::Global:
    case ir::AddrSpace::Constant:
      return access.address;  // already a flat buffer address
    case ir::AddrSpace::Local:
      // Per-thread local arena, reused across groups — the staging buffer
      // stays cache-hot on the thread that keeps re-filling it.
      return kLocalBase + tid * kLocalWindow + access.address;
    case ir::AddrSpace::Private:
      // Work-item private data cycles through the same thread-local stack.
      return kPrivateBase + tid * kLocalWindow + access.address;
  }
  return access.address;
}

CpuModel::CpuModel(const PlatformSpec& spec) : spec_(spec) {
  if (spec_.sharedLLC.bytes != 0) {
    shared_llc_ = std::make_unique<CacheLevel>(spec_.sharedLLC);
  }
  threads_.resize(spec_.hwThreads);
}

CpuModel::GroupDigest CpuModel::digestGroup(unsigned shard,
                                            const rt::GroupTrace& trace) {
  GroupDigest digest;
  digest.tid = shard;
  digest.counters = trace.counters;
  digest.accesses.reserve(trace.accesses.size());
  // A thread's private caches are built when it gets its first group: a
  // sampled estimate may feed fewer groups than the platform has threads.
  std::unique_ptr<CacheHierarchy>& owned = threads_[shard].caches;
  if (owned == nullptr) {
    owned = std::make_unique<CacheHierarchy>(spec_.privateLevels);
  }
  CacheHierarchy& caches = *owned;
  for (const rt::MemAccess& access : trace.accesses) {
    GroupDigest::Access rec;
    const std::size_t before = digest.deferredLines.size();
    // accessPrivate never touches the shared LLC, so concurrent digests on
    // different shards race only on disjoint private cache state.
    rec.privateLat = caches.accessPrivate(remapAddress(shard, access),
                                          access.size, digest.deferredLines);
    rec.deferred =
        static_cast<std::uint32_t>(digest.deferredLines.size() - before);
    digest.accesses.push_back(rec);
  }
  return digest;
}

double CpuModel::resolveShared(std::uint64_t lineAddress) {
  if (shared_llc_ != nullptr && shared_llc_->spec().bytes != 0) {
    if (shared_llc_->access(lineAddress)) return shared_llc_->spec().hitCycles;
  }
  return spec_.memCycles;
}

void CpuModel::mergeGroup(const GroupDigest& digest) {
  Thread& thread = threads_[digest.tid];
  std::size_t li = 0;
  for (const GroupDigest::Access& rec : digest.accesses) {
    double latency = rec.privateLat;
    for (std::uint32_t i = 0; i < rec.deferred; ++i) {
      latency = std::max(latency, resolveShared(digest.deferredLines[li++]));
    }
    const double exposed = latency * spec_.memOverlap;
    thread.cycles += exposed;
    thread.memCycles += exposed;
  }
  thread.cycles += static_cast<double>(digest.counters.total()) * spec_.cpi;
  thread.cycles +=
      static_cast<double>(digest.counters.barrier) * spec_.barrierCycles;
  thread.cycles += spec_.groupOverheadCycles;
  totals_ += digest.counters;
}

double CpuModel::totalCycles() const {
  double busiest = 0;
  for (const Thread& t : threads_) busiest = std::max(busiest, t.cycles);
  return busiest;
}

double CpuModel::memoryCycles() const {
  double total = 0;
  for (const Thread& t : threads_) total += t.memCycles;
  return total;
}

double CpuModel::l1HitRate() const {
  std::uint64_t hits = 0;
  std::uint64_t total = 0;
  for (const Thread& t : threads_) {
    if (t.caches == nullptr) continue;  // got no group
    const auto& levels = t.caches->levels();
    if (levels.empty()) continue;
    hits += levels.front().hits();
    total += levels.front().hits() + levels.front().misses();
  }
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace grover::perf
