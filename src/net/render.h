// Text rendering of per-request verdicts and service stats, shared by
// groverc's local --serve-batch mode and the groverd daemon so a remote
// client sees exactly the lines a local run would print.
#pragma once

#include <cstdint>
#include <string>

#include "net/wire.h"
#include "service/compile_service.h"

namespace grover::net {

/// The per-request verdict text of the plain submit path — what groverc
/// prints after "[i] <request>: " (e.g. "ok, 1/1 buffers transformed,
/// np 2.252 (gain)" or "failed: <first diagnostic line>").
[[nodiscard]] std::string renderResultLine(const service::Artifact& a);

/// The per-request verdict text of the policy path (--auto): falls back
/// to renderResultLine for ineligible or failed requests.
[[nodiscard]] std::string renderAutoResultLine(const service::AutoResult& r);

/// What to include in a rendered stats block.
struct StatsRenderOptions {
  bool policy = false;   ///< include the "policy:" line (--auto)
  bool measure = false;  ///< include the "measure:" line (--measure-rate)
  bool prove = false;    ///< include the "prove:" line (--prove)
};

/// The multi-line cache/stages(/policy/measure/prove)/memo stats block
/// groverc prints after a batch; the daemon ships the same text for a
/// Stats frame. Ends with a newline.
[[nodiscard]] std::string renderStats(const service::ServiceStats& s,
                                      const StatsRenderOptions& options);

/// The one-line "server: ..." event-loop counter summary, shared by the
/// daemon's rendered-text stats payload and groverc's decoding of the
/// binary StatsFrame — same counters, byte-identical line, so the two
/// views diff cleanly. Ends with a newline.
[[nodiscard]] std::string renderServerLine(const StatsCounters& c,
                                           std::uint64_t connectionsOpen);

/// Human-readable rendering of a decoded binary StatsFrame: a health
/// header, the shared "server:" line, and a "service:" summary.
[[nodiscard]] std::string renderStatsFrame(const StatsFrame& f);

/// The same snapshot as one JSON object (machine consumers; groverc
/// --stats-json). Ends with a newline.
[[nodiscard]] std::string renderStatsFrameJson(const StatsFrame& f);

/// One-line health summary for periodic daemon logs (groverd
/// --health-interval). No trailing newline; the caller prefixes and
/// terminates it.
[[nodiscard]] std::string renderHealthLine(const StatsFrame& f);

}  // namespace grover::net
