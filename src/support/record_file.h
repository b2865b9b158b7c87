// Checksummed records on disk: the disk tier of RecordStore
// (support/record_store.h), and so the one file format of both stores
// built on it, service::ArtifactCache and policy::PolicyStore (DESIGN.md
// §8).
//
// A record is line-oriented text:
//   <format line>                     e.g. "groverart 3"
//   key <hex16>
//   i <name> <integer>
//   b <name> <u64 bit pattern>        doubles, bit-exact
//   s <name> <len>\n<len raw bytes>\n
//   end
//   sum <hex16>
// The trailer is FNV-1a/64 (support/hash.h) over every byte before it.
// A reader checks it before it parses any field, so a record whose bytes
// changed in any way after it was written is never parsed, let alone
// served. Fields are read back strictly in the order they were written.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

namespace grover {

/// Writes the fields of one record.
class RecordWriter {
 public:
  /// Starts a record with its format line and its key line.
  RecordWriter(std::string_view format, std::uint64_t key);

  void num(std::string_view name, std::int64_t v);
  void bits(std::string_view name, double v);
  void str(std::string_view name, std::string_view s);

  /// Ends the record with "end" and the checksum trailer; returns it.
  [[nodiscard]] std::string seal() &&;

 private:
  std::string text_;
};

/// Reads the fields of one sealed record. Every error throws GroverError
/// with the message prefixed by the reader's `what` (e.g. "artifact").
class RecordReader {
 public:
  /// Opens a sealed record: checks the checksum trailer, then the format
  /// and key lines.
  RecordReader(std::string text, std::string_view format, std::uint64_t key,
               std::string_view what);

  [[nodiscard]] std::int64_t num(std::string_view name);
  /// An int field that must lie in [lo, hi].
  [[nodiscard]] std::int64_t num(std::string_view name, std::int64_t lo,
                                 std::int64_t hi);
  /// A 0/1 int field.
  [[nodiscard]] bool flag(std::string_view name) {
    return num(name, 0, 1) != 0;
  }
  [[nodiscard]] double bits(std::string_view name);
  [[nodiscard]] std::string str(std::string_view name);
  /// Requires the "end" line, and nothing between it and the trailer.
  void finish();

 private:
  [[noreturn]] void fail(std::string_view why) const;
  std::string_view line();
  std::string_view field(char tag, std::string_view name);

  std::string text_;
  std::size_t end_ = 0;  // where the trailer starts
  std::size_t pos_ = 0;
  std::string what_;
};

/// One directory of sealed records, one file per 64-bit key. Thread-safe.
/// A disabled directory (empty path) loads and stores nothing.
class RecordDir {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        // no file for the key
    std::uint64_t loadFailures = 0;  // unreadable, bad checksum or bad field
    std::uint64_t stores = 0;
  };

  /// `extension` names the files (`<hex16 key><extension>`); `format` is
  /// their first line; `what` prefixes read errors.
  RecordDir(std::string dir, std::string extension, std::string format,
            std::string what);

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }
  /// Path of the record for a key ("" when disabled).
  [[nodiscard]] std::string path(std::uint64_t key) const;

  /// Reads the key's record, checks it and hands it to `parse`. Returns
  /// false on a miss, and on any failure: an unreadable file, a bad
  /// checksum, or anything `parse` throws. Failures are counted, and a
  /// record that fails its check or its parse is deleted, so the next
  /// store can replace it.
  bool load(std::uint64_t key,
            const std::function<void(RecordReader&)>& parse);

  /// Seals the fields `write` adds and writes them to a unique temp name,
  /// then renames it over the key's record: a reader never sees a torn
  /// file, and a crash mid-write leaves only a stale temp file. A failed
  /// write is dropped uncounted; the disk tiers are an optimization, never
  /// a correctness dependency.
  void store(std::uint64_t key,
             const std::function<void(RecordWriter&)>& write);

  [[nodiscard]] Stats stats() const;

 private:
  void count(std::uint64_t Stats::*field);

  std::string dir_;
  std::string extension_;
  std::string format_;
  std::string what_;
  mutable std::mutex mutex_;
  Stats stats_;  // guarded by mutex_
};

}  // namespace grover
