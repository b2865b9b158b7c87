// Persistent decision store of the policy engine (DESIGN.md §10): maps a
// feature key — support::hash over (feature vector, platform, scale) —
// to the transform decision learned for that kernel shape. A RecordStore
// (support/record_store.h): sharded in-memory LRU (decisions are tiny, so
// the budget is entry-count based) plus an optional on-disk tier of
// checksummed `groverpol 3` records in the record format the artifact
// cache also uses (support/record_file.h): doubles stored as bit
// patterns, temp-file + atomic rename on write, and any record whose
// checksum or fields fail is deleted and treated as a miss.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "perf/estimator.h"
#include "support/record_store.h"
#include "sym/report.h"

namespace grover::policy {

/// Which compiled kernel variant a decision serves.
enum class Variant : std::uint8_t {
  Original,     // keep local memory
  Transformed,  // Grover-disabled local memory
};
[[nodiscard]] const char* toString(Variant v);

/// One learned decision. Immutable from the consumer's point of view;
/// only the feedback loop rewrites entries (through PolicyStore::store).
struct Decision {
  Variant variant = Variant::Original;
  perf::Outcome predictedOutcome = perf::Outcome::Similar;
  /// np the decision was made at (np > 1 → disabling local memory wins).
  double predictedNp = 1.0;
  /// 0..1; estimate-backed decisions are high, feature-prior ones low.
  double confidence = 0;
  /// Where the decision came from: "estimate", "prior", or "feedback".
  std::string source;

  // --- feedback state (see policy/feedback.h) --------------------------
  /// Exponentially-weighted mean of *measured* np; 0 until the first
  /// measurement arrives.
  double ewmaNp = 0;
  std::uint64_t observations = 0;
  /// Set when the measured EWMA contradicts predictedNp by more than the
  /// feedback loop's tolerance — the platform model is miscalibrated for
  /// this kernel shape.
  bool mismatch = false;

  // --- proof state (see sym/report.h) ----------------------------------
  /// Verdict of the symbolic race prover on the *transformed* kernel at
  /// decision time. Unchecked when the decision was made without --prove.
  /// Refuted forces Variant::Original and an automatic Loss verdict
  /// regardless of np — a transform that introduces a race never wins.
  sym::ProofStatus proof = sym::ProofStatus::Unchecked;
  /// Wall clock of the store that produced this entry (ms since epoch);
  /// drives confidence decay. 0 = unstamped (legacy/test entries).
  std::uint64_t storedAtMs = 0;

  /// The variant np says to serve (ties/Similar keep the original: the
  /// author's code wins unless the transform is a proven gain).
  [[nodiscard]] static Variant variantFor(double np, double threshold);
};

/// Age-decayed confidence: halves every `horizonMs` toward the
/// feature-prior floor `priorConfidence`, so a year-old estimate carries
/// no more weight than a cold prior. horizonMs == 0 disables decay, and
/// an unstamped decision (storedAtMs == 0) never decays.
[[nodiscard]] double decayedConfidence(const Decision& d,
                                       double priorConfidence,
                                       std::uint64_t nowMs,
                                       std::uint64_t horizonMs);

/// Whether a stale entry whose measurements contradict its prediction
/// should be re-measured instead of trusted: mismatch is flagged and at
/// least one decay horizon has passed since it was stored.
[[nodiscard]] bool shouldRemeasure(const Decision& d, std::uint64_t nowMs,
                                   std::uint64_t horizonMs);

class PolicyStore {
 public:
  struct Config {
    /// Total in-memory entries across all shards.
    std::size_t maxEntries = 1u << 16;
    unsigned shards = 8;
    /// Directory of the on-disk tier; empty = memory only.
    std::string diskDir;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t diskLoadFailures = 0;  // corrupt/unreadable entries
    std::uint64_t diskStores = 0;
  };

  explicit PolicyStore(Config config);

  /// Memory probe, falling back to the disk tier on miss (a disk hit
  /// populates the memory tier). nullopt = unknown kernel shape.
  [[nodiscard]] std::optional<Decision> lookup(std::uint64_t key) {
    return store_.lookup(key);
  }

  /// The memory probe of lookup() alone: never reads the disk tier, so
  /// nullopt may only mean the decision is not in memory.
  [[nodiscard]] std::optional<Decision> lookupMemory(std::uint64_t key) {
    return store_.get(key);
  }

  /// Insert/overwrite in memory and persist to the disk tier (atomic
  /// temp-file + rename; write errors are swallowed — the disk tier is
  /// an optimization, never a correctness dependency).
  void store(std::uint64_t key, const Decision& decision);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Config& config() const { return config_; }

  /// Path of the decision file for a key ("" without a disk tier).
  [[nodiscard]] std::string diskPath(std::uint64_t key) const {
    return store_.disk().path(key);
  }

 private:
  Config config_;
  RecordStore<Decision> store_;
};

}  // namespace grover::policy
