// Two-tier record store: a sharded in-memory LRU with a cost budget in
// front of a RecordDir of checksummed records (support/record_file.h).
// Both stores of the compilation service are one (DESIGN.md §8, §10):
// service::ArtifactCache prices an artifact at its bytes and
// policy::PolicyStore a decision at 1; each adds only its record codec
// and the one rule it owns.
//
// get/put touch memory only and store writes the disk only; load and
// lookup read the disk and put what they find in memory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/record_file.h"

namespace grover {

/// Memory holds values of type V. A record is written from a `Fields`
/// (V itself, unless V is a handle such as a shared pointer) and read
/// back as a V. Thread-safe.
template <typename V, typename Fields = V>
class RecordStore {
 public:
  /// How records are named and framed (RecordDir), what a value costs
  /// against the memory budget, and how it becomes record fields and back.
  struct Codec {
    const char* extension;  // file suffix, e.g. ".grvart"
    const char* format;     // each record's first line, e.g. "groverart 3"
    const char* what;       // prefixes read errors, e.g. "artifact"
    std::size_t (*cost)(const V&);
    void (*write)(RecordWriter&, const Fields&);
    V (*read)(RecordReader&);
  };

  /// Memory counts summed over the shards, and the disk tier's.
  struct Stats {
    std::uint64_t hits = 0, misses = 0, evictions = 0, entries = 0;
    std::uint64_t cost = 0;  // of the entries in memory
    RecordDir::Stats disk;
  };

  /// `budget` is the total cost memory may hold, split evenly over
  /// `shards` (at least 1 each). An empty `diskDir` means no disk tier.
  RecordStore(const Codec& codec, std::size_t budget, unsigned shards,
              std::string diskDir)
      : codec_(codec),
        disk_(std::move(diskDir), codec.extension, codec.format,
              codec.what) {
    const unsigned n = std::max(1u, shards);
    shardBudget_ = std::max<std::size_t>(1, budget / n);
    for (unsigned i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// Memory probe; a hit becomes its shard's most recently used entry.
  [[nodiscard]] std::optional<V> get(std::uint64_t key) {
    Shard& shard = shardFor(key);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// Insert or overwrite in memory, then evict the shard's least recently
  /// used entries until it fits its budget. A value that costs more than
  /// a shard's budget evicts itself.
  void put(std::uint64_t key, V value) {
    const std::size_t cost = codec_.cost(value);
    Shard& shard = shardFor(key);
    std::lock_guard lock(shard.mutex);
    if (const auto it = shard.index.find(key); it != shard.index.end()) {
      shard.cost -= it->second->cost;
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    shard.lru.push_front(Entry{key, std::move(value), cost});
    shard.index[key] = shard.lru.begin();
    shard.cost += cost;
    while (shard.cost > shardBudget_ && !shard.lru.empty()) {
      const Entry& victim = shard.lru.back();
      shard.cost -= victim.cost;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.evictions;
    }
  }

  /// The key's record from disk, also put in memory. nullopt on a miss,
  /// without a disk tier, and for a record that fails its checks
  /// (RecordDir::load counts and deletes it).
  [[nodiscard]] std::optional<V> load(std::uint64_t key) {
    std::optional<V> value;
    if (!disk_.load(key, [&](RecordReader& r) { value = codec_.read(r); })) {
      return std::nullopt;
    }
    put(key, *value);
    return value;
  }

  /// get(), else load().
  [[nodiscard]] std::optional<V> lookup(std::uint64_t key) {
    if (std::optional<V> hit = get(key)) return hit;
    return load(key);
  }

  /// Writes the key's record (RecordDir::store); no-op without a disk tier.
  void store(std::uint64_t key, const Fields& fields) {
    disk_.store(key, [&](RecordWriter& w) { codec_.write(w, fields); });
  }

  [[nodiscard]] Stats stats() const {
    Stats s;
    for (const auto& shard : shards_) {
      std::lock_guard lock(shard->mutex);
      s.hits += shard->hits;
      s.misses += shard->misses;
      s.evictions += shard->evictions;
      s.entries += shard->lru.size();
      s.cost += shard->cost;
    }
    s.disk = disk_.stats();
    return s;
  }

  [[nodiscard]] const RecordDir& disk() const { return disk_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    V value;
    std::size_t cost = 0;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    // key → position in lru. std::list iterators stay valid on splice.
    std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
        index;
    std::size_t cost = 0;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
  };

  Shard& shardFor(std::uint64_t key) {
    // The low bits index the shard; FNV-1a keys mix well enough for this.
    return *shards_[key % shards_.size()];
  }

  Codec codec_;
  std::size_t shardBudget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  RecordDir disk_;
};

}  // namespace grover
