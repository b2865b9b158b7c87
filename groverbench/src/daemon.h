// One groverd child process: spawned with the benchmark's fixed daemon
// flags, waited for until it prints its "listening on" line, sampled
// through /proc, asked for its text Stats frame, and stopped with
// SIGTERM. A daemon that does not exit 0 with "clean shutdown" in its
// log fails the run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core.h"

namespace groverbench {

struct DaemonOptions {
  std::string exe;        // path of the groverd binary
  std::string logPath;    // its stderr
  std::string cacheDir;   // --cache-dir (empty = none)
  std::string policyDir;  // --policy-dir (empty = none)
};

class Daemon {
 public:
  /// Spawn groverd --threads=2 --prove --port=0 (plus the directories)
  /// and block until it listens. Throws std::runtime_error when it exits
  /// early or stays silent for 60 s.
  explicit Daemon(const DaemonOptions& options);
  /// Kills a daemon that was never stop()ped (error paths only).
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// "127.0.0.1:<port>".
  [[nodiscard]] const std::string& address() const { return address_; }
  /// Seconds from spawn to the "listening on" line.
  [[nodiscard]] double startSeconds() const { return start_seconds_; }

  /// Daemon user+system CPU so far, in milliseconds (/proc/<pid>/stat).
  [[nodiscard]] double cpuMs() const;
  /// Peak resident set so far, in kB (VmHWM of /proc/<pid>/status).
  [[nodiscard]] std::uint64_t peakRssKb() const;
  /// The daemon's counters, from one text Stats frame on a fresh
  /// connection.
  [[nodiscard]] DaemonCounters counters() const;
  /// Restrict every current thread of the daemon to one CPU (threads it
  /// creates later inherit the mask from their creator).
  void pinTo(int cpu) const;

  /// SIGTERM, then wait up to 60 s. Returns an empty string when the
  /// daemon exited 0 and logged "clean shutdown", else the reason.
  std::string stop();

 private:
  std::string log_path_;
  pid_t pid_ = -1;
  std::string address_;
  double start_seconds_ = 0;
};

}  // namespace groverbench
