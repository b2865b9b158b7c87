// The three closed-loop workloads of the groverd benchmark. Every
// workload drives real groverd processes over TCP loopback from this one
// client process, checks each reply against the expected verdicts, and
// reads the daemon's Stats frame to hold it to the workload's
// invariants (README.md in this directory has the full design).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core.h"

namespace groverbench {

using Clock = std::chrono::steady_clock;

/// One timed interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the same list, or -1.
struct Span {
  std::string name;
  double startUs = 0;
  double endUs = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span list, written out once when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  /// Record a finished span; returns its index.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, std::uint64_t request);
  /// Set the end of a span added while it was still open.
  void finish(int index, Clock::time_point end);
  void append(const std::vector<Span>& spans);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] Clock::time_point origin() const { return origin_; }
  /// One JSON object per line.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct Context {
  std::string groverd;  // daemon binary
  std::string workDir;  // daemon logs and directories live here
  Expected expected;
  std::uint64_t seed = 0;
};

/// What one measured phase of a workload saw.
struct Phase {
  std::vector<double> latencyMs;  // one per completed request
  std::uint64_t sent = 0, succeeded = 0, failed = 0;
  std::uint64_t autoSent = 0, plainSent = 0;
  std::vector<std::string> failures;  // first few reasons
  double wallSeconds = 0;
  double daemonCpuMs = 0;
  std::uint64_t peakRssKb = 0;
  /// Daemon start (spawn to "listening") of every per-pass daemon.
  std::vector<double> daemonStartSeconds;
  std::size_t passes = 0;  // passes, or warm-serve cycles
  DaemonCounters counters;  // Stats-frame deltas summed over the phase
  /// Invariant violations and daemons that did not shut down cleanly.
  std::vector<std::string> problems;
  std::size_t daemons = 0, cleanShutdowns = 0;

  void merge(const Phase& other);  // per-connection partials
};

struct WorkloadResult {
  double tailPercentile = 99;  // the workload's wanted tail
  /// Everything before the first measured request (README.md).
  double setupSeconds = 0;
  std::string setupNote;
  /// Set-up daemons and requests (priming, disk fills): checked like the
  /// measured ones, but not part of any metric.
  Phase setup;
  Phase untraced;
  /// Filled only by a traced run, which measures two half-length phases:
  /// untraced, then traced.
  Phase traced;
  bool hasTraced = false;
};

/// Run one workload for `seconds` of measurement (both phases together
/// when `tracer` is set). Throws std::invalid_argument on an unknown
/// name.
[[nodiscard]] WorkloadResult runWorkload(const std::string& name,
                                         const Context& ctx, double seconds,
                                         Tracer* tracer);

[[nodiscard]] const std::vector<std::string>& workloadNames();

}  // namespace groverbench
