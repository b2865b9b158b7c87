// Pure helpers of the groverd benchmark: the key set, seeded request
// sequences, percentiles, reply checking against the expected verdicts,
// and the parsers for /proc files and the daemon's text Stats frame.
// Nothing here touches a process or a socket, so the self-tests
// (selftest.cpp) can pin every rule down with fixed inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace groverbench {

// --- key set --------------------------------------------------------------

/// One request key: a Table I app on one platform model, at test scale.
struct Key {
  std::string app;
  std::string platform;
  /// The serve-batch grammar line the daemon receives.
  [[nodiscard]] std::string line() const {
    return app + " " + platform + " test";
  }
  [[nodiscard]] std::string name() const { return app + " " + platform; }
};

/// The 11 Table I apps x 6 platforms, in a fixed order (66 keys).
[[nodiscard]] const std::vector<Key>& allKeys();

// --- seeded sequences -----------------------------------------------------

/// splitmix64: small, fully specified, identical on every platform and
/// standard library (std::shuffle's algorithm is not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform-enough integer in [0, n) for n far below 2^64.
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Fisher-Yates permutation of 0..n-1 drawn from `rng`.
[[nodiscard]] std::vector<std::size_t> permutation(std::size_t n, Rng& rng);

enum class Kind { Plain, Auto };  // wire Request / AutoRequest

struct Req {
  std::size_t key = 0;  // index into allKeys()
  Kind kind = Kind::Plain;
  friend bool operator==(const Req& a, const Req& b) {
    return a.key == b.key && a.kind == b.kind;
  }
};

/// The request sequence of one workload pass (cold-decide, restart-disk)
/// or one warm-serve cycle, drawn from `rng`:
///   cold-decide   every key once as AutoRequest, shuffled;
///   restart-disk  every key once, shuffled, each AutoRequest followed
///                 by a Request for the same key;
///   warm-serve    four shuffles of the keys interleaved so every 4th
///                 request is an AutoRequest: each key appears three
///                 times as Request and once as AutoRequest per cycle.
[[nodiscard]] std::vector<Req> coldPass(Rng& rng);
[[nodiscard]] std::vector<Req> restartPass(Rng& rng);
[[nodiscard]] std::vector<Req> warmCycle(Rng& rng);

// --- statistics -----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);

/// A tail latency: the nearest-rank percentile of the samples.
struct Tail {
  double percentile = 0;  // 99, 90 or 50; 0 when none is supported
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked above the percentile
};

/// The highest percentile, starting at `wanted` and falling back along
/// 99 -> 90 -> 50, that has at least ten samples beyond it. With fewer
/// than 20 samples no percentile qualifies and `percentile` is 0.
[[nodiscard]] Tail tailLatency(std::vector<double> samples, double wanted);

// --- reply checking -------------------------------------------------------

enum class Variant { WithLocal, WithoutLocal };
[[nodiscard]] const char* toString(Variant v);

/// Expected served variant per key name ("<app> <platform>").
using Expected = std::map<std::string, Variant>;

/// Parse the committed expected file: "<app> <platform> <variant> ..."
/// per line, '#' comments. Throws std::runtime_error on a bad line.
[[nodiscard]] Expected parseExpected(const std::string& text);

/// Status byte values of the wire protocol (net/wire.h), kept as plain
/// integers so this file needs no daemon headers.
inline constexpr int kStatusOk = 0;
inline constexpr int kStatusOverloaded = 2;

/// Check one reply. An AutoRequest must be answered Ok with
/// "ok, serving <variant> (...)"; a plain Request with the artifact line
/// "ok, N/M buffers transformed, np X (<outcome>)..." whose served
/// variant is the transformed one exactly when the outcome is a gain and
/// no proof veto fired. Returns an empty string when the reply serves
/// `expected`, else a one-line reason.
[[nodiscard]] std::string checkReply(Kind kind, int status,
                                     std::string_view text,
                                     Variant expected);

// --- /proc parsers --------------------------------------------------------

/// utime + stime of /proc/<pid>/stat, in clock ticks.
[[nodiscard]] std::optional<std::uint64_t> parseProcCpuTicks(
    std::string_view statText);
/// VmHWM of /proc/<pid>/status, in kB.
[[nodiscard]] std::optional<std::uint64_t> parseVmHwmKb(
    std::string_view statusText);

/// The aggregate "cpu" line of /proc/stat.
struct HostCpu {
  std::uint64_t total = 0;  // every field summed, guest time excluded
  std::uint64_t steal = 0;
};
[[nodiscard]] std::optional<HostCpu> parseHostCpu(std::string_view statText);
/// The 1-minute load average of /proc/loadavg.
[[nodiscard]] std::optional<double> parseLoadAvg1(std::string_view text);

// --- daemon Stats frame ---------------------------------------------------

/// The counters this benchmark reads from the daemon's text Stats frame
/// (net/render.cpp renderStats + renderServerLine). All cumulative.
struct DaemonCounters {
  double memoryHits = 0, coalesced = 0, misses = 0, diskHits = 0,
         compiles = 0;
  double policyHits = 0, policyMisses = 0;
  /// Overload and credit rejections plus protocol errors.
  double rejected = 0;
  double frontendMs = 0, groverMs = 0, validateMs = 0, printMs = 0,
         estimateMs = 0, proveMs = 0, cacheMs = 0;

  DaemonCounters& operator+=(const DaemonCounters& o);
  friend DaemonCounters operator-(DaemonCounters a, const DaemonCounters& b);
};

/// Parse a rendered Stats payload. Throws std::runtime_error when a line
/// or field the benchmark relies on is missing.
[[nodiscard]] DaemonCounters parseStatsText(std::string_view text);

// --- small text helpers ---------------------------------------------------

[[nodiscard]] std::string readFile(const std::string& path);
/// Shortest round-trip decimal rendering of a double (for JSON).
[[nodiscard]] std::string jsonNumber(double v);

}  // namespace groverbench
