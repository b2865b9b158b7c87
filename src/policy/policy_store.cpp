#include "policy/policy_store.h"

#include <chrono>
#include <cmath>
#include <limits>

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

Decision readDecision(RecordReader& r) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Decision d;
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
  return d;
}

std::size_t entryCost(const Decision&) { return 1; }

const RecordStore<Decision>::Codec kCodec{
    ".grvpol", kFormat, "policy", entryCost, writeDecision, readDecision};

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
      store_(kCodec, config_.maxEntries, config_.shards, config_.diskDir) {}

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
  store_.put(key, stamped);
  store_.store(key, stamped);
}

PolicyStore::Stats PolicyStore::stats() const {
  const auto s = store_.stats();
  return {.hits = s.hits, .misses = s.misses, .evictions = s.evictions,
          .entries = s.entries, .diskHits = s.disk.hits,
          .diskLoadFailures = s.disk.loadFailures,
          .diskStores = s.disk.stores};
}

}  // namespace grover::policy
