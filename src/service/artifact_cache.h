// Content-addressed artifact cache: a RecordStore (support/record_store.h)
// of artifacts, a sharded in-memory LRU with a byte budget plus an
// optional on-disk tier. Keys are stable 64-bit content hashes of (source,
// transform options, platform, scale) — see CompileService::cacheKey.
//
// The disk tier holds one checksummed `groverart 3` record per key
// (support/record_file.h), with both modules embedded exactly as
// ir/printer.h renders them. The parse check runs when an artifact is
// written: storeToDisk() writes only module text that reparses, verifies
// and prints back byte-identically. A load then reads the file, checks the
// checksum trailer and the fields, and parses no IR. A record that fails
// (bad checksum, header, key or field) counts as corruption, is deleted,
// and the request falls back to recompilation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "service/artifact.h"
#include "support/record_store.h"

namespace grover::service {

class ArtifactCache {
 public:
  struct Config {
    /// Total in-memory budget across all shards. An artifact larger than
    /// its shard's slice is never retained in memory (it is still
    /// returned to the requester, and still hits the disk tier).
    std::size_t maxBytes = 256u << 20;
    unsigned shards = 8;
    /// Directory of the on-disk tier; empty = memory only.
    std::string diskDir;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytesInUse = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t diskMisses = 0;
    std::uint64_t diskLoadFailures = 0;  // corrupt/unreadable artifacts
    std::uint64_t diskStores = 0;
  };

  explicit ArtifactCache(Config config);

  /// In-memory probe; bumps LRU recency on hit.
  [[nodiscard]] ArtifactPtr get(std::uint64_t key) {
    return store_.get(key).value_or(nullptr);
  }

  /// Insert/overwrite; evicts least-recently-used entries of the shard
  /// until it fits its byte budget again.
  void put(std::uint64_t key, ArtifactPtr artifact) {
    if (artifact != nullptr) store_.put(key, std::move(artifact));
  }

  /// Disk-tier probe; a hit is also put in memory. Returns null on miss,
  /// on a disabled disk tier, and on any corruption (counted in
  /// diskLoadFailures).
  [[nodiscard]] ArtifactPtr loadFromDisk(std::uint64_t key) {
    return store_.load(key).value_or(nullptr);
  }

  /// Memory probe, falling back to loadFromDisk() on a miss.
  [[nodiscard]] ArtifactPtr lookup(std::uint64_t key) {
    return store_.lookup(key).value_or(nullptr);
  }

  /// Persist an artifact (atomic write-then-rename). No-op without a
  /// disk tier. An artifact whose module text is not print-parse stable
  /// is neither written nor counted in diskStores. Write errors are
  /// swallowed — the disk tier is an optimization, never a correctness
  /// dependency.
  void storeToDisk(std::uint64_t key, const Artifact& artifact);

  /// The disk tier's artifact for `key`, else the one `build` returns,
  /// which is stored to disk. Either way it is in memory on return.
  /// Whatever `build` throws propagates, and nothing is stored.
  [[nodiscard]] ArtifactPtr loadOrBuild(
      std::uint64_t key, const std::function<ArtifactPtr()>& build);

  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const Config& config() const { return config_; }

  /// Path of the artifact file for a key ("" without a disk tier).
  [[nodiscard]] std::string diskPath(std::uint64_t key) const {
    return store_.disk().path(key);
  }

 private:
  Config config_;
  RecordStore<ArtifactPtr, Artifact> store_;
};

}  // namespace grover::service
