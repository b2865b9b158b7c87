#include "service/artifact_cache.h"

#include <algorithm>
#include <limits>

#include "ir/ir_parser.h"
#include "ir/printer.h"
#include "support/diagnostics.h"

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

void readArtifact(RecordReader& r, Artifact& a) {
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
}

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
      disk_(config_.diskDir, ".grvart", kFormat, "artifact") {
  const unsigned n = std::max(1u, config_.shards);
  shardBudget_ = std::max<std::size_t>(1, config_.maxBytes / n);
  shards_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ArtifactCache::Shard& ArtifactCache::shardFor(std::uint64_t key) {
  // The low bits index the shard; FNV-1a mixes well enough for this.
  return *shards_[key % shards_.size()];
}

ArtifactPtr ArtifactCache::get(std::uint64_t key) {
  Shard& shard = shardFor(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->artifact;
}

void ArtifactCache::put(std::uint64_t key, ArtifactPtr artifact) {
  if (artifact == nullptr) return;
  const std::size_t bytes = artifact->byteSize();
  Shard& shard = shardFor(key);
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.push_front(Entry{key, std::move(artifact), bytes});
  shard.index[key] = shard.lru.begin();
  shard.bytes += bytes;
  while (shard.bytes > shardBudget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

std::string ArtifactCache::diskPath(std::uint64_t key) const {
  return disk_.path(key);
}

ArtifactPtr ArtifactCache::loadFromDisk(std::uint64_t key) {
  auto artifact = std::make_shared<Artifact>();
  if (!disk_.load(key, [&](RecordReader& r) { readArtifact(r, *artifact); })) {
    return nullptr;
  }
  return artifact;
}

void ArtifactCache::storeToDisk(std::uint64_t key, const Artifact& artifact) {
  if (!disk_.enabled()) return;
  // A load trusts the checksum and parses no IR, so the parse check runs
  // here, once, before the artifact is written.
  if (!printParseStable(artifact.originalText) ||
      !printParseStable(artifact.transformedText)) {
    return;
  }
  disk_.store(key, [&](RecordWriter& w) { writeArtifact(w, artifact); });
}

ArtifactCache::Stats ArtifactCache::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.entries += shard->lru.size();
    s.bytesInUse += shard->bytes;
  }
  const RecordDir::Stats d = disk_.stats();
  s.diskHits = d.hits;
  s.diskMisses = d.misses;
  s.diskLoadFailures = d.loadFailures;
  s.diskStores = d.stores;
  return s;
}

}  // namespace grover::service
