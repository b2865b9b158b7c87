#include "policy/policy_store.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "support/record_file.h"

namespace grover::policy {
namespace {

// ---- on-disk decision format ---------------------------------------------
//
// One `groverpol 3` record (support/record_file.h) per key. Version 2
// added the proof status and store timestamp, version 3 the checksum
// trailer. Older files fail the header check and are dropped like any
// other corrupt entry: decisions are re-derivable, so a one-time cold
// restart beats a migration path.

constexpr const char* kFormat = "groverpol 3";

void writeDecision(RecordWriter& w, const Decision& d) {
  w.num("variant", static_cast<std::int64_t>(d.variant));
  w.num("outcome", static_cast<std::int64_t>(d.predictedOutcome));
  w.bits("predictedNp", d.predictedNp);
  w.bits("confidence", d.confidence);
  w.str("source", d.source);
  w.bits("ewmaNp", d.ewmaNp);
  w.num("observations", static_cast<std::int64_t>(d.observations));
  w.num("mismatch", d.mismatch);
  w.num("proof", static_cast<std::int64_t>(d.proof));
  w.num("storedAtMs", static_cast<std::int64_t>(d.storedAtMs));
}

void readDecision(RecordReader& r, Decision& d) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  d.variant = static_cast<Variant>(
      r.num("variant", 0, static_cast<std::int64_t>(Variant::Transformed)));
  d.predictedOutcome = static_cast<perf::Outcome>(r.num(
      "outcome", 0, static_cast<std::int64_t>(perf::Outcome::Similar)));
  d.predictedNp = r.bits("predictedNp");
  d.confidence = r.bits("confidence");
  d.source = r.str("source");
  d.ewmaNp = r.bits("ewmaNp");
  d.observations = static_cast<std::uint64_t>(r.num("observations", 0, kMax));
  d.mismatch = r.flag("mismatch");
  d.proof = static_cast<sym::ProofStatus>(
      r.num("proof", 0, static_cast<std::int64_t>(sym::ProofStatus::Unknown)));
  d.storedAtMs = static_cast<std::uint64_t>(r.num("storedAtMs", 0, kMax));
}

}  // namespace

const char* toString(Variant v) {
  switch (v) {
    case Variant::Original: return "with-local-memory";
    case Variant::Transformed: return "without-local-memory";
  }
  return "?";
}

Variant Decision::variantFor(double np, double threshold) {
  return np > 1.0 + threshold ? Variant::Transformed : Variant::Original;
}

double decayedConfidence(const Decision& d, double priorConfidence,
                         std::uint64_t nowMs, std::uint64_t horizonMs) {
  if (horizonMs == 0 || d.storedAtMs == 0 || nowMs <= d.storedAtMs) {
    return d.confidence;
  }
  const double age = static_cast<double>(nowMs - d.storedAtMs);
  const double factor = std::exp2(-age / static_cast<double>(horizonMs));
  // Decay only toward the floor; a decision already below the prior's
  // confidence (e.g. a contradicted estimate) is not pulled back up.
  if (d.confidence <= priorConfidence) return d.confidence;
  return priorConfidence + (d.confidence - priorConfidence) * factor;
}

bool shouldRemeasure(const Decision& d, std::uint64_t nowMs,
                     std::uint64_t horizonMs) {
  if (!d.mismatch || horizonMs == 0 || d.storedAtMs == 0) return false;
  return nowMs >= d.storedAtMs + horizonMs;
}

PolicyStore::PolicyStore(Config config)
    : config_(std::move(config)),
      disk_(config_.diskDir, ".grvpol", kFormat, "policy") {
  const unsigned n = std::max(1u, config_.shards);
  shardBudget_ = std::max<std::size_t>(1, config_.maxEntries / n);
  shards_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PolicyStore::Shard& PolicyStore::shardFor(std::uint64_t key) {
  return *shards_[key % shards_.size()];
}

std::optional<Decision> PolicyStore::lookupMemory(std::uint64_t key) {
  Shard& shard = shardFor(key);
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->decision;
  }
  ++shard.misses;
  return std::nullopt;
}

std::optional<Decision> PolicyStore::lookup(std::uint64_t key) {
  if (std::optional<Decision> hit = lookupMemory(key)) return hit;
  Decision fromDisk;
  if (!disk_.load(key, [&](RecordReader& r) { readDecision(r, fromDisk); })) {
    return std::nullopt;
  }
  putMemory(key, fromDisk);
  return fromDisk;
}

void PolicyStore::store(std::uint64_t key, const Decision& decision) {
  // Stamp the store time unless the caller set one (tests construct
  // deliberately stale entries to exercise decay).
  Decision stamped = decision;
  if (stamped.storedAtMs == 0) {
    stamped.storedAtMs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }
  putMemory(key, stamped);
  disk_.store(key, [&](RecordWriter& w) { writeDecision(w, stamped); });
}

void PolicyStore::putMemory(std::uint64_t key, const Decision& decision) {
  Shard& shard = shardFor(key);
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.push_front(Entry{key, decision});
  shard.index[key] = shard.lru.begin();
  while (shard.lru.size() > shardBudget_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

std::string PolicyStore::diskPath(std::uint64_t key) const {
  return disk_.path(key);
}

PolicyStore::Stats PolicyStore::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.entries += shard->lru.size();
  }
  const RecordDir::Stats d = disk_.stats();
  s.diskHits = d.hits;
  s.diskLoadFailures = d.loadFailures;
  s.diskStores = d.stores;
  return s;
}

}  // namespace grover::policy
