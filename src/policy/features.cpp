#include "policy/features.h"

#include <algorithm>
#include <limits>
#include <map>
#include <type_traits>

#include "grover/candidates.h"
#include "grover/expr_tree.h"
#include "grover/usage_analysis.h"
#include "ir/basic_block.h"
#include "ir/casting.h"
#include "ir/instruction.h"
#include "support/hash.h"
#include "support/record_file.h"
#include "support/str.h"

namespace grover::policy {
namespace {

/// Does `v`'s expression involve get_local_id(0), and if so, is it ever
/// scaled by a constant pitch > 1 on its path to the root? The expression
/// tree recursion stops at calls/phis/constants exactly like Grover's own
/// index analysis, so this sees the same affine structure the transform
/// sees.
StrideShape classifyStride(ir::Value* index) {
  if (index == nullptr) return StrideShape::NoLocalIdX;
  grv::ExprTree tree = grv::ExprTree::build(index);
  bool sawLx = false;
  bool sawScaledLx = false;
  for (grv::ExprNode* leaf : tree.leaves()) {
    auto* call = ir::dyn_cast<ir::CallInst>(leaf->value);
    if (call == nullptr || call->builtin() != ir::Builtin::GetLocalId) {
      continue;
    }
    const auto dim = call->constDimension();
    if (!dim.has_value() || *dim != 0) continue;
    sawLx = true;
    // Walk toward the root: a Mul whose other operand is a constant != 1
    // (or any non-constant pitch) scales lx away from unit stride.
    for (grv::ExprNode* n = leaf->parent; n != nullptr; n = n->parent) {
      auto* bin = ir::dyn_cast<ir::BinaryInst>(n->value);
      if (bin == nullptr) continue;
      if (bin->op() == ir::BinaryOp::Mul ||
          bin->op() == ir::BinaryOp::Shl) {
        sawScaledLx = true;
        break;
      }
    }
  }
  if (!sawLx) return StrideShape::NoLocalIdX;
  return sawScaledLx ? StrideShape::Scaled : StrideShape::Unit;
}

/// Most frequent pattern class of a set of classified accesses (ties go
/// to the smaller enum value so the result is deterministic).
unsigned dominantPattern(const std::map<unsigned, unsigned>& histogram) {
  unsigned best = static_cast<unsigned>(grv::IndexPattern::Other);
  unsigned bestCount = 0;
  for (const auto& [cls, count] : histogram) {
    if (count > bestCount) {
      best = cls;
      bestCount = count;
    }
  }
  return bestCount == 0 ? static_cast<unsigned>(grv::IndexPattern::Other)
                        : best;
}

/// Flat gep index of a load/store pointer operand (null when the access
/// goes through the raw pointer, i.e. index 0).
ir::Value* flatIndex(ir::Value* pointer) {
  if (auto* gep = ir::dyn_cast<ir::GepInst>(pointer)) return gep->index();
  return nullptr;
}

/// classifyIndexPattern with the null-index convention: no gep = index 0.
unsigned patternClass(ir::Value* index) {
  if (index == nullptr) {
    return static_cast<unsigned>(grv::IndexPattern::Constant);
  }
  return static_cast<unsigned>(grv::classifyIndexPattern(index));
}

/// Merge a stride observation: Scaled dominates Unit dominates absent —
/// one strided access is enough to make the whole buffer's global
/// traffic uncoalesced.
void mergeStride(StrideShape& into, StrideShape observed) {
  into = std::max(into, observed);
}

/// Every field of a feature vector, in featureKey() order: the one list
/// the key and the record codec share. `visit(name, field)` sees each
/// field by reference.
template <typename Features, typename Visit>
void forEachField(Features& f, Visit&& visit) {
  visit("localBytes", f.localBytes);
  visit("numLocalBuffers", f.numLocalBuffers);
  visit("numReversibleBuffers", f.numReversibleBuffers);
  visit("numTemporalBuffers", f.numTemporalBuffers);
  visit("numBarriers", f.numBarriers);
  visit("numStagingPairs", f.numStagingPairs);
  visit("localLoads", f.localLoads);
  visit("localStores", f.localStores);
  visit("reuseMilli", f.reuseMilli);
  visit("glPatternClass", f.glPatternClass);
  visit("lsPatternClass", f.lsPatternClass);
  visit("llPatternClass", f.llPatternClass);
  visit("glStride", f.glStride);
  visit("llStride", f.llStride);
  visit("totalInsts", f.totalInsts);
  visit("globalLoads", f.globalLoads);
  visit("globalStores", f.globalStores);
  visit("arithOps", f.arithOps);
  visit("branches", f.branches);
  visit("phis", f.phis);
  constexpr std::string_view kLocal[] = {"localSizeX", "localSizeY",
                                         "localSizeZ"};
  constexpr std::string_view kGlobal[] = {"globalSizeX", "globalSizeY",
                                          "globalSizeZ"};
  for (std::size_t d = 0; d < 3; ++d) visit(kLocal[d], f.localSize[d]);
  for (std::size_t d = 0; d < 3; ++d) visit(kGlobal[d], f.globalSize[d]);
}

}  // namespace

const char* toString(StrideShape s) {
  switch (s) {
    case StrideShape::NoLocalIdX: return "no-lx";
    case StrideShape::Unit: return "unit";
    case StrideShape::Scaled: return "scaled";
  }
  return "?";
}

KernelFeatures extractFeatures(ir::Function& fn, const rt::NDRange* range) {
  KernelFeatures f;

  const grv::LocalUsageReport usage = grv::analyzeLocalMemoryUsage(fn);
  f.localBytes = usage.totalLocalBytes;
  f.numBarriers = usage.numBarriers;
  f.numLocalBuffers = static_cast<unsigned>(usage.buffers.size());
  for (const grv::LocalBufferUsage& b : usage.buffers) {
    if (b.kind == grv::LocalUsageKind::SoftwareCache) {
      ++f.numReversibleBuffers;
    } else if (b.kind == grv::LocalUsageKind::TemporalStorage) {
      ++f.numTemporalBuffers;
    }
    f.localLoads += b.numLoads;
    f.localStores += b.numStores;
    f.numStagingPairs += b.numStagingPairs;
  }
  f.reuseMilli = f.localStores == 0
                     ? 0
                     : (std::uint64_t{f.localLoads} * 1000) / f.localStores;

  // Index-pattern classes and stride shapes from the candidate analysis —
  // the same GL/LS/LL classification the transform itself uses.
  std::map<unsigned, unsigned> glHist, lsHist, llHist;
  for (const grv::CandidateBuffer& c : grv::findCandidates(fn)) {
    for (const grv::StagingPair& p : c.pairs) {
      ++glHist[patternClass(p.glIndex)];
      ++lsHist[patternClass(p.lsIndex)];
      mergeStride(f.glStride, classifyStride(p.glIndex));
    }
    for (ir::LoadInst* ll : c.localLoads) {
      ir::Value* idx = flatIndex(ll->pointer());
      ++llHist[patternClass(idx)];
      mergeStride(f.llStride, classifyStride(idx));
    }
  }
  f.glPatternClass = dominantPattern(glHist);
  f.lsPatternClass = dominantPattern(lsHist);
  f.llPatternClass = dominantPattern(llHist);

  // Static instruction mix.
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : *bb) {
      ++f.totalInsts;
      if (auto* load = ir::dyn_cast<ir::LoadInst>(inst.get())) {
        if (load->space() == ir::AddrSpace::Global) ++f.globalLoads;
      } else if (auto* store = ir::dyn_cast<ir::StoreInst>(inst.get())) {
        if (store->space() == ir::AddrSpace::Global) ++f.globalStores;
      } else if (ir::isa<ir::BinaryInst>(inst.get())) {
        ++f.arithOps;
      } else if (inst->isTerminator()) {
        ++f.branches;
      } else if (ir::isa<ir::PhiInst>(inst.get())) {
        ++f.phis;
      }
    }
  }

  if (range != nullptr) {
    f.localSize = range->local;
    f.globalSize = range->global;
  }
  return f;
}

std::uint64_t featureKey(const KernelFeatures& f,
                         const std::string& platform,
                         std::uint64_t scaleTag) {
  Fnv1a h;
  h.update(std::string_view("grover-policy-key-v1"));
  forEachField(f, [&](std::string_view, auto v) {
    h.update(static_cast<std::uint64_t>(v));
  });
  h.update(std::string_view(platform));
  h.update(scaleTag);
  return h.digest();
}

void writeFeatures(RecordWriter& w, const KernelFeatures& f) {
  forEachField(f, [&](std::string_view name, auto v) {
    w.num(name, static_cast<std::int64_t>(v));
  });
}

KernelFeatures readFeatures(RecordReader& r) {
  KernelFeatures f;
  forEachField(f, [&](std::string_view name, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    std::int64_t hi = 0;
    if constexpr (std::is_enum_v<T>) {
      hi = static_cast<std::int64_t>(StrideShape::Scaled);
    } else {
      hi = static_cast<std::int64_t>(std::min<std::uint64_t>(
          std::numeric_limits<T>::max(),
          std::numeric_limits<std::int64_t>::max()));
    }
    field = static_cast<T>(r.num(name, 0, hi));
  });
  return f;
}

std::string KernelFeatures::str() const {
  return cat("local ", localBytes, " B in ", numLocalBuffers, " buffer(s) (",
             numReversibleBuffers, " reversible, ", numTemporalBuffers,
             " temporal), ", numBarriers, " barrier(s), ", numStagingPairs,
             " staging pair(s), LL/LS reuse ",
             fixed(static_cast<double>(reuseMilli) / 1000.0, 2),
             ", gl stride ", toString(glStride), ", ll stride ",
             toString(llStride), ", ", totalInsts, " insts (", globalLoads,
             " gload, ", globalStores, " gstore, ", arithOps, " arith), wg ",
             localSize[0], "x", localSize[1], "x", localSize[2]);
}

}  // namespace grover::policy
