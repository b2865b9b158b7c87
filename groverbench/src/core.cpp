#include "core.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace groverbench {

const std::vector<Key>& allKeys() {
  static const std::vector<Key> keys = [] {
    const char* apps[] = {"AMD-SS",   "AMD-MT",   "NVD-MT",    "AMD-RG",
                          "AMD-MM",   "NVD-MM-A", "NVD-MM-B",  "NVD-MM-AB",
                          "NVD-NBody", "PAB-ST",  "ROD-SC"};
    const char* platforms[] = {"SNB",   "Nehalem", "MIC",
                               "Fermi", "Kepler",  "Tahiti"};
    std::vector<Key> out;
    for (const char* a : apps) {
      for (const char* p : platforms) out.push_back({a, p});
    }
    return out;
  }();
  return keys;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

std::vector<Req> coldPass(Rng& rng) {
  std::vector<Req> out;
  for (std::size_t k : permutation(allKeys().size(), rng)) {
    out.push_back({k, Kind::Auto});
  }
  return out;
}

std::vector<Req> restartPass(Rng& rng) {
  std::vector<Req> out;
  for (std::size_t k : permutation(allKeys().size(), rng)) {
    out.push_back({k, Kind::Auto});
    out.push_back({k, Kind::Plain});
  }
  return out;
}

std::vector<Req> warmCycle(Rng& rng) {
  const std::size_t n = allKeys().size();
  std::vector<std::vector<std::size_t>> lanes;
  for (int lane = 0; lane < 4; ++lane) lanes.push_back(permutation(n, rng));
  std::vector<Req> out;
  for (std::size_t i = 0; i < n; ++i) {
    for (int lane = 0; lane < 4; ++lane) {
      out.push_back({lanes[lane][i], lane == 3 ? Kind::Auto : Kind::Plain});
    }
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

Tail tailLatency(std::vector<double> samples, double wanted) {
  Tail t;
  t.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  for (const double p : {99.0, 90.0, 50.0}) {
    if (p > wanted) continue;
    // Nearest rank: the smallest sample with at least p% at or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    if (rank == 0) continue;
    const std::size_t beyond = samples.size() - rank;
    if (beyond < 10) continue;
    t.percentile = p;
    t.value = samples[rank - 1];
    t.beyond = beyond;
    return t;
  }
  return t;
}

const char* toString(Variant v) {
  return v == Variant::WithoutLocal ? "without-local-memory"
                                    : "with-local-memory";
}

Expected parseExpected(const std::string& text) {
  Expected out;
  std::istringstream in(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string app, platform, variant;
    if (!(fields >> app)) continue;
    if (!(fields >> platform >> variant)) {
      throw std::runtime_error("expected file line " +
                               std::to_string(lineNo) + ": too few fields");
    }
    Variant v;
    if (variant == "without-local-memory") {
      v = Variant::WithoutLocal;
    } else if (variant == "with-local-memory") {
      v = Variant::WithLocal;
    } else {
      throw std::runtime_error("expected file line " +
                               std::to_string(lineNo) + ": bad variant '" +
                               variant + "'");
    }
    out[app + " " + platform] = v;
  }
  return out;
}

std::string checkReply(Kind kind, int status, std::string_view text,
                       Variant expected) {
  const std::string shown(text.substr(0, 120));
  if (status == kStatusOverloaded) return "refused (Overloaded): " + shown;
  if (status != kStatusOk) {
    return "status " + std::to_string(status) + ": " + shown;
  }
  std::optional<Variant> served;
  if (kind == Kind::Auto) {
    for (const Variant v : {Variant::WithoutLocal, Variant::WithLocal}) {
      const std::string head = std::string("ok, serving ") + toString(v) + " (";
      if (text.rfind(head, 0) == 0) served = v;
    }
  } else if (text.rfind("ok, ", 0) == 0 &&
             text.find(" buffers transformed") != std::string_view::npos) {
    const bool gain = text.find(" (gain)") != std::string_view::npos;
    const bool vetoed =
        text.find(", transform vetoed:") != std::string_view::npos;
    const bool classified = gain ||
                            text.find(" (loss)") != std::string_view::npos ||
                            text.find(" (similar)") != std::string_view::npos;
    if (classified) {
      served = gain && !vetoed ? Variant::WithoutLocal : Variant::WithLocal;
    }
  }
  if (!served) return "unrecognised reply: " + shown;
  if (*served != expected) {
    return std::string("served ") + toString(*served) + ", expected " +
           toString(expected) + ": " + shown;
  }
  return {};
}

namespace {

std::vector<std::string_view> words(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n')) ++i;
    const std::size_t start = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\t' && s[i] != '\n') ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::optional<std::uint64_t> toU64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> toDouble(std::string_view s) {
  double v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) return std::nullopt;
  return v;
}

/// The line of `text` starting with `prefix`, or an empty view.
std::string_view lineStarting(std::string_view text, std::string_view prefix) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    if (line.rfind(prefix, 0) == 0) return line;
    pos = end + 1;
  }
  return {};
}

/// The number written immediately before `label` in `line` (e.g. "12"
/// in "..., 12 compiles, ..."). Throws when absent.
double numberBefore(std::string_view line, std::string_view label) {
  const std::size_t at = line.find(label);
  if (at == std::string_view::npos) {
    throw std::runtime_error("stats: no '" + std::string(label) + "' in '" +
                             std::string(line) + "'");
  }
  std::size_t start = at;
  while (start > 0 && (std::isdigit(static_cast<unsigned char>(
                           line[start - 1])) ||
                       line[start - 1] == '.')) {
    --start;
  }
  const auto v = toDouble(line.substr(start, at - start));
  if (!v) {
    throw std::runtime_error("stats: no number before '" +
                             std::string(label) + "'");
  }
  return *v;
}

/// The number written immediately after `label` in `line` (e.g. "84.6"
/// in "frontend 84.6 ms"). Throws when absent.
double numberAfter(std::string_view line, std::string_view label) {
  const std::size_t at = line.find(label);
  if (at == std::string_view::npos) {
    throw std::runtime_error("stats: no '" + std::string(label) + "' in '" +
                             std::string(line) + "'");
  }
  std::size_t end = at + label.size();
  const std::size_t start = end;
  while (end < line.size() &&
         (std::isdigit(static_cast<unsigned char>(line[end])) ||
          line[end] == '.')) {
    ++end;
  }
  const auto v = toDouble(line.substr(start, end - start));
  if (!v) {
    throw std::runtime_error("stats: no number after '" +
                             std::string(label) + "'");
  }
  return *v;
}

std::string_view requireLine(std::string_view text, std::string_view prefix) {
  const std::string_view line = lineStarting(text, prefix);
  if (line.empty()) {
    throw std::runtime_error("stats: no '" + std::string(prefix) + "' line");
  }
  return line;
}

}  // namespace

std::optional<std::uint64_t> parseProcCpuTicks(std::string_view statText) {
  // The command name sits in parentheses and may itself hold spaces or
  // parentheses; fields are counted from the last ')'.
  const std::size_t close = statText.rfind(')');
  if (close == std::string_view::npos) return std::nullopt;
  const std::vector<std::string_view> f = words(statText.substr(close + 1));
  // f[0] is field 3 (state); utime and stime are fields 14 and 15.
  if (f.size() < 13) return std::nullopt;
  const auto utime = toU64(f[11]);
  const auto stime = toU64(f[12]);
  if (!utime || !stime) return std::nullopt;
  return *utime + *stime;
}

std::optional<std::uint64_t> parseVmHwmKb(std::string_view statusText) {
  const std::string_view line = lineStarting(statusText, "VmHWM:");
  if (line.empty()) return std::nullopt;
  const std::vector<std::string_view> f = words(line);
  if (f.size() < 2) return std::nullopt;
  return toU64(f[1]);
}

std::optional<HostCpu> parseHostCpu(std::string_view statText) {
  const std::string_view line = lineStarting(statText, "cpu ");
  if (line.empty()) return std::nullopt;
  const std::vector<std::string_view> f = words(line);
  // cpu user nice system idle iowait irq softirq steal [guest guest_nice]
  if (f.size() < 9) return std::nullopt;
  HostCpu h;
  for (std::size_t i = 1; i < f.size() && i <= 8; ++i) {
    const auto v = toU64(f[i]);
    if (!v) return std::nullopt;
    h.total += *v;
    if (i == 8) h.steal = *v;
  }
  return h;
}

std::optional<double> parseLoadAvg1(std::string_view text) {
  const std::vector<std::string_view> f = words(text);
  if (f.empty()) return std::nullopt;
  return toDouble(f[0]);
}

namespace {

constexpr double DaemonCounters::*kCounterFields[] = {
    &DaemonCounters::memoryHits, &DaemonCounters::coalesced,
    &DaemonCounters::misses,     &DaemonCounters::diskHits,
    &DaemonCounters::compiles,   &DaemonCounters::policyHits,
    &DaemonCounters::policyMisses, &DaemonCounters::rejected,
    &DaemonCounters::frontendMs, &DaemonCounters::groverMs,
    &DaemonCounters::validateMs, &DaemonCounters::printMs,
    &DaemonCounters::estimateMs, &DaemonCounters::proveMs,
    &DaemonCounters::cacheMs};

}  // namespace

DaemonCounters& DaemonCounters::operator+=(const DaemonCounters& o) {
  for (const auto field : kCounterFields) this->*field += o.*field;
  return *this;
}

DaemonCounters operator-(DaemonCounters a, const DaemonCounters& b) {
  for (const auto field : kCounterFields) a.*field -= b.*field;
  return a;
}

DaemonCounters parseStatsText(std::string_view text) {
  DaemonCounters c;
  const std::string_view cache = requireLine(text, "cache: ");
  c.memoryHits = numberBefore(cache, " memory hits");
  c.coalesced = numberBefore(cache, " coalesced");
  c.misses = numberBefore(cache, " misses");
  c.diskHits = numberBefore(cache, " disk hits");
  c.compiles = numberBefore(cache, " compiles");
  const std::string_view stages = requireLine(text, "stages: ");
  c.frontendMs = numberAfter(stages, "frontend ");
  c.groverMs = numberAfter(stages, "grover ");
  c.validateMs = numberAfter(stages, "validate ");
  c.printMs = numberAfter(stages, "print ");
  c.estimateMs = numberAfter(stages, "estimate ");
  c.cacheMs = numberAfter(stages, "cache ");
  const std::string_view policy = requireLine(text, "policy: ");
  c.policyHits = numberBefore(policy, " hits");
  c.policyMisses = numberBefore(policy, " misses");
  // The prove line only appears on a --prove daemon.
  if (const std::string_view prove = lineStarting(text, "prove: ");
      !prove.empty()) {
    c.proveMs = numberBefore(prove, " ms");
  }
  const std::string_view server = requireLine(text, "server: ");
  c.rejected = numberBefore(server, " overload-rejected") +
               numberBefore(server, " protocol errors");
  return c;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, p) : std::string("0");
}

}  // namespace groverbench
