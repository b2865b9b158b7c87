#include "service/artifact_cache.h"

#include <limits>

#include "ir/ir_parser.h"
#include "ir/printer.h"

namespace grover::service {
namespace {

// ---- on-disk artifact format ---------------------------------------------
//
// One `groverart 3` record (support/record_file.h) per key. Version 3
// added the checksum trailer and the feature key; older files fail the
// header check and are recompiled once, like any other corrupt entry.

constexpr const char* kFormat = "groverart 3";

void writeArtifact(RecordWriter& w, const Artifact& a) {
  w.num("ok", a.ok);
  w.str("diagnostics", a.diagnostics);
  w.num("anyTransformed", a.report.anyTransformed);
  w.num("barriersRemoved", a.report.barriersRemoved);
  w.num("numBuffers", static_cast<std::int64_t>(a.report.buffers.size()));
  for (const auto& b : a.report.buffers) {
    w.str("name", b.bufferName);
    w.num("transformed", b.transformed);
    w.str("reason", b.reason);
    w.str("glIndex", b.glIndex);
    w.str("lsIndex", b.lsIndex);
    w.str("llIndex", b.llIndex);
    w.str("nglIndex", b.nglIndex);
    w.str("solution", b.solution);
    w.num("lsPattern", static_cast<std::int64_t>(b.lsPattern));
    w.num("llPattern", static_cast<std::int64_t>(b.llPattern));
    w.num("numLocalLoads", b.numLocalLoads);
    w.num("numStagingPairs", b.numStagingPairs);
  }
  w.num("hasEstimate", a.hasEstimate);
  w.bits("cyclesWithLM", a.cyclesWithLM);
  w.bits("cyclesWithoutLM", a.cyclesWithoutLM);
  w.bits("normalized", a.normalized);
  w.num("outcome", static_cast<std::int64_t>(a.outcome));
  w.num("proofOriginal", static_cast<std::int64_t>(a.proofOriginal));
  w.num("proofTransformed", static_cast<std::int64_t>(a.proofTransformed));
  w.str("proofNote", a.proofNote);
  w.num("proofVetoed", a.proofVetoed);
  w.num("hasFeatures", a.hasFeatures);
  if (a.hasFeatures) {
    policy::writeFeatures(w, a.features);
    w.num("policyKey", static_cast<std::int64_t>(a.policyKey));
  }
  w.str("original", a.originalText);
  w.str("transformed", a.transformedText);
}

ArtifactPtr readArtifact(RecordReader& r) {
  auto artifact = std::make_shared<Artifact>();
  Artifact& a = *artifact;
  constexpr auto kLastPattern =
      static_cast<std::int64_t>(grv::IndexPattern::Other);
  constexpr auto kLastProof =
      static_cast<std::int64_t>(sym::ProofStatus::Unknown);
  constexpr auto kUnsignedMax =
      static_cast<std::int64_t>(std::numeric_limits<unsigned>::max());
  a.ok = r.flag("ok");
  a.diagnostics = r.str("diagnostics");
  a.report.anyTransformed = r.flag("anyTransformed");
  a.report.barriersRemoved = r.flag("barriersRemoved");
  const std::int64_t numBuffers = r.num("numBuffers", 0, 4096);
  for (std::int64_t i = 0; i < numBuffers; ++i) {
    grv::BufferResult b;
    b.bufferName = r.str("name");
    b.transformed = r.flag("transformed");
    b.reason = r.str("reason");
    b.glIndex = r.str("glIndex");
    b.lsIndex = r.str("lsIndex");
    b.llIndex = r.str("llIndex");
    b.nglIndex = r.str("nglIndex");
    b.solution = r.str("solution");
    b.lsPattern =
        static_cast<grv::IndexPattern>(r.num("lsPattern", 0, kLastPattern));
    b.llPattern =
        static_cast<grv::IndexPattern>(r.num("llPattern", 0, kLastPattern));
    b.numLocalLoads =
        static_cast<unsigned>(r.num("numLocalLoads", 0, kUnsignedMax));
    b.numStagingPairs =
        static_cast<unsigned>(r.num("numStagingPairs", 0, kUnsignedMax));
    a.report.buffers.push_back(std::move(b));
  }
  a.hasEstimate = r.flag("hasEstimate");
  a.cyclesWithLM = r.bits("cyclesWithLM");
  a.cyclesWithoutLM = r.bits("cyclesWithoutLM");
  a.normalized = r.bits("normalized");
  a.outcome = static_cast<perf::Outcome>(r.num(
      "outcome", 0, static_cast<std::int64_t>(perf::Outcome::Similar)));
  a.proofOriginal =
      static_cast<sym::ProofStatus>(r.num("proofOriginal", 0, kLastProof));
  a.proofTransformed =
      static_cast<sym::ProofStatus>(r.num("proofTransformed", 0, kLastProof));
  a.proofNote = r.str("proofNote");
  a.proofVetoed = r.flag("proofVetoed");
  a.hasFeatures = r.flag("hasFeatures");
  if (a.hasFeatures) {
    a.features = policy::readFeatures(r);
    a.policyKey = static_cast<std::uint64_t>(r.num("policyKey"));
  }
  a.originalText = r.str("original");
  a.transformedText = r.str("transformed");
  return artifact;
}

std::size_t byteCost(const ArtifactPtr& a) { return a->byteSize(); }

const RecordStore<ArtifactPtr, Artifact>::Codec kCodec{
    ".grvart", kFormat, "artifact", byteCost, writeArtifact, readArtifact};

/// Whether module text reparses, verifies and prints back
/// byte-identically — the fixed point every stored module must be.
bool printParseStable(const std::string& text) {
  if (text.empty()) return true;
  try {
    ir::Context ctx;
    // parseModule verifies every function it parses.
    return ir::printModule(*ir::parseModule(ctx, text)) == text;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

ArtifactCache::ArtifactCache(Config config)
    : config_(std::move(config)),
      store_(kCodec, config_.maxBytes, config_.shards, config_.diskDir) {}

void ArtifactCache::storeToDisk(std::uint64_t key, const Artifact& artifact) {
  // A load trusts the checksum and parses no IR, so the parse check runs
  // here, once, before the artifact is written (never without a disk).
  if (store_.disk().enabled() && printParseStable(artifact.originalText) &&
      printParseStable(artifact.transformedText)) {
    store_.store(key, artifact);
  }
}

ArtifactPtr ArtifactCache::loadOrBuild(
    std::uint64_t key, const std::function<ArtifactPtr()>& build) {
  if (ArtifactPtr stored = loadFromDisk(key)) return stored;
  ArtifactPtr built = build();
  storeToDisk(key, *built);
  put(key, built);
  return built;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  const auto s = store_.stats();
  return {.hits = s.hits, .misses = s.misses, .evictions = s.evictions,
          .entries = s.entries, .bytesInUse = s.cost,
          .diskHits = s.disk.hits, .diskMisses = s.disk.misses,
          .diskLoadFailures = s.disk.loadFailures,
          .diskStores = s.disk.stores};
}

}  // namespace grover::service
