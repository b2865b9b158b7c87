#include "support/record_file.h"

#include <atomic>
#include <bit>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/diagnostics.h"
#include "support/hash.h"

namespace grover {
namespace {

/// "sum " + 16 hex digits + "\n".
constexpr std::size_t kTrailerBytes = 21;

std::string trailerFor(std::string_view body) {
  Fnv1a h;
  h.updateBytes(body.data(), body.size());
  return "sum " + toHex64(h.digest()) + "\n";
}

/// The whole of `text` as a decimal integer, or false.
template <typename T>
bool parseWhole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

}  // namespace

RecordWriter::RecordWriter(std::string_view format, std::uint64_t key) {
  text_.append(format).append("\nkey ").append(toHex64(key)) += '\n';
}

void RecordWriter::num(std::string_view name, std::int64_t v) {
  text_.append("i ").append(name).append(" ").append(std::to_string(v)) +=
      '\n';
}

void RecordWriter::bits(std::string_view name, double v) {
  text_.append("b ").append(name).append(" ").append(
      std::to_string(std::bit_cast<std::uint64_t>(v))) += '\n';
}

void RecordWriter::str(std::string_view name, std::string_view s) {
  text_.append("s ").append(name).append(" ").append(
      std::to_string(s.size())) += '\n';
  text_.append(s) += '\n';
}

std::string RecordWriter::seal() && {
  text_ += "end\n";
  text_ += trailerFor(text_);
  return std::move(text_);
}

RecordReader::RecordReader(std::string text, std::string_view format,
                           std::uint64_t key, std::string_view what)
    : text_(std::move(text)), what_(what) {
  if (text_.size() < kTrailerBytes) fail("truncated");
  end_ = text_.size() - kTrailerBytes;
  if (std::string_view(text_).substr(end_) !=
      trailerFor(std::string_view(text_).substr(0, end_))) {
    fail("bad checksum");
  }
  if (line() != format) fail("bad header");
  if (line() != "key " + toHex64(key)) fail("bad key");
}

void RecordReader::fail(std::string_view why) const {
  throw GroverError(what_ + ": " + std::string(why));
}

std::string_view RecordReader::line() {
  const std::size_t nl = text_.find('\n', pos_);
  if (nl == std::string::npos || nl >= end_) fail("truncated");
  const std::string_view out(text_.data() + pos_, nl - pos_);
  pos_ = nl + 1;
  return out;
}

std::string_view RecordReader::field(char tag, std::string_view name) {
  std::string_view l = line();
  if (l.size() < name.size() + 4 || l[0] != tag || l[1] != ' ' ||
      l.substr(2, name.size()) != name || l[2 + name.size()] != ' ') {
    fail("expected " + std::string(1, tag) + " field " + std::string(name));
  }
  return l.substr(name.size() + 3);
}

std::int64_t RecordReader::num(std::string_view name) {
  std::int64_t v = 0;
  if (!parseWhole(field('i', name), v)) {
    fail("bad int field " + std::string(name));
  }
  return v;
}

std::int64_t RecordReader::num(std::string_view name, std::int64_t lo,
                               std::int64_t hi) {
  const std::int64_t v = num(name);
  if (v < lo || v > hi) fail("out-of-range field " + std::string(name));
  return v;
}

double RecordReader::bits(std::string_view name) {
  std::uint64_t u = 0;
  if (!parseWhole(field('b', name), u)) {
    fail("bad bits field " + std::string(name));
  }
  return std::bit_cast<double>(u);
}

std::string RecordReader::str(std::string_view name) {
  std::uint64_t len = 0;
  if (!parseWhole(field('s', name), len) || len >= end_ - pos_ ||
      text_[pos_ + len] != '\n') {
    fail("bad string length for " + std::string(name));
  }
  std::string out = text_.substr(pos_, len);
  pos_ += len + 1;
  return out;
}

void RecordReader::finish() {
  if (line() != "end" || pos_ != end_) fail("expected end");
}

RecordDir::RecordDir(std::string dir, std::string extension,
                     std::string format, std::string what)
    : dir_(std::move(dir)),
      extension_(std::move(extension)),
      format_(std::move(format)),
      what_(std::move(what)) {
  if (enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
  }
}

std::string RecordDir::path(std::uint64_t key) const {
  if (!enabled()) return {};
  return dir_ + "/" + toHex64(key) + extension_;
}

void RecordDir::count(std::uint64_t Stats::*field) {
  std::lock_guard lock(mutex_);
  ++(stats_.*field);
}

bool RecordDir::load(std::uint64_t key,
                     const std::function<void(RecordReader&)>& parse) {
  const std::string file = path(key);
  if (file.empty()) return false;
  std::string text;
  {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      count(&Stats::misses);
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
      count(&Stats::loadFailures);
      return false;
    }
    text = std::move(buf).str();
  }
  try {
    RecordReader reader(std::move(text), format_, key, what_);
    parse(reader);
    reader.finish();
  } catch (const std::exception&) {
    // A bad record: drop it so the next store can replace it.
    std::error_code ec;
    std::filesystem::remove(file, ec);
    count(&Stats::loadFailures);
    return false;
  }
  count(&Stats::hits);
  return true;
}

void RecordDir::store(std::uint64_t key,
                      const std::function<void(RecordWriter&)>& write) {
  const std::string file = path(key);
  if (file.empty()) return;
  RecordWriter writer(format_, key);
  write(writer);
  const std::string record = std::move(writer).seal();
  // The temp name is unique per write, not just per key: several threads
  // may rewrite one key, and processes may share a directory.
  static std::atomic<std::uint64_t> tmpCounter{0};
  Fnv1a tmpTag;
  tmpTag.update(static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id())));
  tmpTag.update(static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(&tmpCounter)));  // per-process (ASLR)
  tmpTag.update(tmpCounter.fetch_add(1));
  const std::string tmp = file + ".tmp" + toHex64(tmpTag.digest());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << record;
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, file, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  count(&Stats::stores);
}

RecordDir::Stats RecordDir::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace grover
