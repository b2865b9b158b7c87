// Architecture-independent kernel features (DESIGN.md §10). The policy
// engine keys its per-kernel/per-platform decisions on *what the kernel
// does* — local-memory bytes, staging structure, index-pattern classes,
// access stride shape, barrier count, work-group geometry — rather than
// on the source text, so textually different kernels with the same
// memory behavior share one decision, and a cosmetic edit does not
// invalidate a learned decision. Inspired by the architecture-independent
// workload characterization of Chilukuri et al. (PAPERS.md).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "ir/function.h"
#include "rt/ndrange.h"

namespace grover {
class RecordReader;
class RecordWriter;
}  // namespace grover

namespace grover::policy {

/// How the innermost local id (lx = get_local_id(0)) enters the flat
/// index of an access: contiguous lanes (coalesced when lowered to
/// global memory), scaled by a row pitch (the transposed/column shape
/// that thrashes caches and splits GPU transactions), or absent.
enum class StrideShape : std::uint8_t {
  NoLocalIdX,  // index does not depend on lx
  Unit,        // lx appears only additively → unit stride across lanes
  Scaled,      // lx multiplied by a pitch > 1 → strided/uncoalesced
};
[[nodiscard]] const char* toString(StrideShape s);

/// One extracted feature vector. Every field is integral (doubles are
/// stored as scaled fixed-point) so the content hash is exact and
/// portable — see featureKey().
struct KernelFeatures {
  // --- local-memory shape (grv::analyzeLocalMemoryUsage) ---------------
  std::uint64_t localBytes = 0;     // total __local footprint
  unsigned numLocalBuffers = 0;
  unsigned numReversibleBuffers = 0;  // SoftwareCache: Grover can reverse
  unsigned numTemporalBuffers = 0;    // computed values: Grover refuses
  unsigned numBarriers = 0;
  unsigned numStagingPairs = 0;  // GL→LS pairs across all buffers
  unsigned localLoads = 0;       // LL count
  unsigned localStores = 0;      // LS count
  /// Reuse factor ×1000: local loads per staged element. High reuse means
  /// the software cache amortizes its staging cost; ~1000 (reuse 1) means
  /// staging is pure overhead.
  std::uint64_t reuseMilli = 0;

  // --- index-pattern classes (paper Fig. 7, grv::classifyIndexPattern) --
  unsigned glPatternClass = 0;  // dominant pattern of global loads
  unsigned lsPatternClass = 0;  // dominant pattern of local stores
  unsigned llPatternClass = 0;  // dominant pattern of local loads

  // --- access stride/coalescing shape ----------------------------------
  StrideShape glStride = StrideShape::NoLocalIdX;  // staging global loads
  StrideShape llStride = StrideShape::NoLocalIdX;  // local (cache) loads

  // --- static instruction mix ------------------------------------------
  unsigned totalInsts = 0;
  unsigned globalLoads = 0;
  unsigned globalStores = 0;
  unsigned arithOps = 0;  // integer + float binary ops
  unsigned branches = 0;
  unsigned phis = 0;

  // --- work-group geometry (zero when no launch config is known) --------
  std::array<std::uint32_t, 3> localSize{0, 0, 0};
  std::array<std::uint32_t, 3> globalSize{0, 0, 0};

  [[nodiscard]] std::string str() const;
};

/// Extract the feature vector of one kernel. `range` supplies the
/// work-group geometry when a launch configuration is known (null keeps
/// the geometry fields zero — the feature key then describes the kernel
/// shape alone).
[[nodiscard]] KernelFeatures extractFeatures(ir::Function& fn,
                                             const rt::NDRange* range =
                                                 nullptr);

/// Stable 64-bit content hash over (feature vector, platform, scale tag):
/// the policy-store key. Defined purely by field values in a fixed order
/// (support/hash.h), so it survives process restarts and rebuilds.
[[nodiscard]] std::uint64_t featureKey(const KernelFeatures& f,
                                       const std::string& platform,
                                       std::uint64_t scaleTag);

/// The feature vector as record fields (support/record_file.h), one per
/// field, in featureKey() order.
void writeFeatures(RecordWriter& w, const KernelFeatures& f);
/// Reads what writeFeatures() wrote. Throws GroverError on a missing or
/// out-of-range field.
[[nodiscard]] KernelFeatures readFeatures(RecordReader& r);

}  // namespace grover::policy
