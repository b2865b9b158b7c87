#include "perf/gpu_model.h"

#include <algorithm>

namespace grover::perf {

namespace {
constexpr std::uint32_t kSegmentBytes = 128;  // coalescing segment

/// Sort and deduplicate a bucket's words or segments. Lanes usually issue
/// them in ascending order already, so check before sorting.
void sortUnique(std::vector<std::uint64_t>& v) {
  if (!std::is_sorted(v.begin(), v.end())) std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}
}  // namespace

GpuModel::GpuModel(const PlatformSpec& spec) : spec_(spec) {
  if (spec_.gpuCache.bytes != 0) {
    CacheLevelSpec cacheSpec = spec_.gpuCache;
    cacheSpec.lineSize = kSegmentBytes;
    cache_ = std::make_unique<CacheLevel>(cacheSpec);
  }
}

GpuModel::GroupDigest GpuModel::digestGroup(unsigned shard,
                                            const rt::GroupTrace& trace) const {
  (void)shard;
  GroupDigest digest;
  digest.counters = trace.counters;
  const std::vector<rt::MemAccess>& accesses = trace.accesses;

  // Registers/private data are charged via the instruction counters; only
  // local and global accesses form warp instructions. Each of those gets
  // the index of its instSlot among the group's distinct slots.
  std::vector<std::uint32_t> memory;  // trace indices of those accesses
  std::vector<std::uint32_t> cell;    // per access: slot, then (warp, slot)
  std::vector<std::uint32_t> slots;   // distinct instSlots, first-seen order
  std::uint32_t items = 0;
  for (std::uint32_t i = 0; i < accesses.size(); ++i) {
    const rt::MemAccess& a = accesses[i];
    if (a.space == ir::AddrSpace::Private) continue;
    const auto seen = std::find(slots.begin(), slots.end(), a.instSlot);
    cell.push_back(static_cast<std::uint32_t>(seen - slots.begin()));
    if (seen == slots.end()) slots.push_back(a.instSlot);
    memory.push_back(i);
    items = std::max(items, a.workItem + 1);
  }
  if (memory.empty()) return digest;
  // Rank the slots by value: bucket order follows the instSlot number.
  const std::size_t numSlots = slots.size();
  std::vector<std::uint32_t> rank(numSlots);
  {
    std::vector<std::uint32_t> byValue(numSlots);
    for (std::uint32_t s = 0; s < numSlots; ++s) byValue[s] = s;
    std::sort(byValue.begin(), byValue.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return slots[x] < slots[y];
              });
    for (std::uint32_t r = 0; r < numSlots; ++r) rank[byValue[r]] = r;
  }
  const std::size_t warps = (items + spec_.warpSize - 1) / spec_.warpSize;

  // The k-th access of a work-item from one slot is occurrence k of that
  // load/store; a warp's accesses with equal (slot, occurrence) form one
  // bucket. Cells are (warp, slot) pairs in slot-value order, and a cell
  // spans as many buckets as its busiest work-item has occurrences.
  std::vector<std::uint32_t> occurrences(items * numSlots, 0);
  std::vector<std::uint32_t> cellBase(warps * numSlots, 0);
  std::vector<std::uint32_t> bucket(memory.size());
  for (std::size_t k = 0; k < memory.size(); ++k) {
    const std::uint32_t item = accesses[memory[k]].workItem;
    const std::uint32_t slot = rank[cell[k]];
    const std::uint32_t occ = occurrences[item * numSlots + slot]++;
    cell[k] =
        static_cast<std::uint32_t>((item / spec_.warpSize) * numSlots + slot);
    bucket[k] = occ;
    cellBase[cell[k]] = std::max(cellBase[cell[k]], occ + 1);
  }
  // Prefix sums turn cell widths into first bucket ids, so bucket ids run
  // in (warp, slot, occurrence) order.
  std::uint32_t buckets = 0;
  for (std::uint32_t& base : cellBase) {
    const std::uint32_t width = base;
    base = buckets;
    buckets += width;
  }

  // One stable counting sort: each bucket's accesses, in trace order.
  std::vector<std::uint32_t> begin(buckets + 1, 0);
  for (std::size_t k = 0; k < memory.size(); ++k) {
    bucket[k] += cellBase[cell[k]];
    ++begin[bucket[k] + 1];
  }
  for (std::uint32_t b = 0; b < buckets; ++b) begin[b + 1] += begin[b];
  std::vector<std::uint32_t> sorted(memory.size());
  {
    std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
    for (std::size_t k = 0; k < memory.size(); ++k) {
      sorted[next[bucket[k]]++] = memory[k];
    }
  }

  std::vector<std::uint64_t> scratch;
  std::vector<std::uint32_t> bankWords(spec_.spmBanks);
  for (std::uint32_t b = 0; b < buckets; ++b) {
    const std::uint32_t* first = sorted.data() + begin[b];
    const std::uint32_t* last = sorted.data() + begin[b + 1];
    scratch.clear();
    // The bucket's last access in trace order decides its address space.
    if (accesses[last[-1]].space == ir::AddrSpace::Local) {
      // SPM bank conflicts: distinct words mapping to the same bank
      // serialize; 32-bit banks, so simultaneous reads of the *same* word
      // broadcast.
      for (const std::uint32_t* p = first; p != last; ++p) {
        const std::uint64_t word = accesses[*p].address / 4;
        if (scratch.empty() || scratch.back() != word) scratch.push_back(word);
      }
      sortUnique(scratch);
      std::fill(bankWords.begin(), bankWords.end(), 0);
      std::uint32_t degree = 1;
      for (const std::uint64_t word : scratch) {
        degree = std::max(degree, ++bankWords[word % spec_.spmBanks]);
      }
      digest.spmCycles += spec_.spmCycles * static_cast<double>(degree);
      continue;
    }
    // Global coalescing: one transaction per distinct 128-byte segment.
    for (const std::uint32_t* p = first; p != last; ++p) {
      const rt::MemAccess& a = accesses[*p];
      const std::uint64_t end =
          (a.address + std::max<std::uint32_t>(a.size, 1) - 1) /
          kSegmentBytes;
      for (std::uint64_t s = a.address / kSegmentBytes; s <= end; ++s) {
        if (scratch.empty() || scratch.back() != s) scratch.push_back(s);
      }
    }
    sortUnique(scratch);
    for (const std::uint64_t segment : scratch) {
      digest.segments.push_back(segment * kSegmentBytes);
    }
  }
  return digest;
}

void GpuModel::mergeGroup(const GroupDigest& digest) {
  double memCycles = 0;
  for (std::uint64_t segment : digest.segments) {
    ++transactions_;
    // Every transaction serializes the LSU (replay); misses add exposed
    // DRAM latency on top.
    memCycles += spec_.transactionCycles;
    const bool hit = cache_ != nullptr && cache_->access(segment);
    if (!hit) memCycles += spec_.missCycles;
  }

  const double computeCycles =
      static_cast<double>(digest.counters.total()) * spec_.gpuCpi +
      static_cast<double>(digest.counters.barrier) * spec_.gpuBarrierCycles +
      digest.spmCycles;
  // Compute and memory overlap: the slower pipe bounds the group.
  total_cycles_ += std::max(computeCycles, memCycles);
  spm_cycles_total_ += digest.spmCycles;
  totals_ += digest.counters;
}

}  // namespace grover::perf
