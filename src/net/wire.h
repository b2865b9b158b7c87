// Wire protocol of the groverd serving daemon (DESIGN.md §12).
//
// The request *payload* is the existing --serve-batch grammar — one
// request per frame, exactly the text that would be one line of a batch
// file — wrapped in a small versioned binary header so the framing can
// evolve independently of the grammar:
//
//   offset  size  field
//        0     4  magic      0x47 0x52 0x4F 0x56  ("GROV")
//        4     2  version    protocol version, little-endian (currently 1)
//        6     2  type       FrameType, little-endian
//        8     8  id         request id, little-endian; responses echo it,
//                            so pipelined requests may complete out of
//                            order
//       16     4  size       payload byte count, little-endian
//       20     …  payload
//
// Response and error payloads start with one Status byte followed by
// UTF-8 text (a verdict line, a stats block, or an error message).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace grover::net {

inline constexpr unsigned char kMagic[4] = {'G', 'R', 'O', 'V'};
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 20;
/// Hard per-frame payload bound: a request line or a rendered result is
/// a few hundred bytes; anything near this is a corrupt or hostile
/// frame, and the decoder refuses it instead of buffering unboundedly.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

enum class FrameType : std::uint16_t {
  /// Client → daemon: one serve-batch grammar line, plain submit path
  /// (both variants compiled, estimate when a platform is named).
  Request = 1,
  /// Client → daemon: one serve-batch grammar line routed through the
  /// policy engine (CompileService::compileAuto, groverc --auto).
  AutoRequest = 2,
  /// Daemon → client: Status byte + the per-request verdict text.
  Response = 3,
  /// Client → daemon: snapshot the service + server counters.
  Stats = 4,
  /// Daemon → client: Status byte + rendered stats block.
  StatsResponse = 5,
  /// Daemon → client: Status byte + reason. Sent for protocol
  /// violations; the daemon closes the connection after flushing it.
  Error = 6,
  /// Client → daemon: snapshot the counters as a binary StatsFrame
  /// (machine consumers; the text Stats frame stays for humans).
  StatsBinary = 7,
  /// Daemon → client: Status byte + encoded StatsFrame.
  StatsBinaryResponse = 8,
};

enum class Status : std::uint8_t {
  Ok = 0,
  /// The request was understood but could not be served (malformed
  /// grammar line, unknown app/platform, source failed to compile).
  /// Request-scoped: the connection stays usable.
  RequestFailed = 1,
  /// The admission queue is full; retry later. Request-scoped.
  Overloaded = 2,
  /// Protocol violation (bad magic/version/oversized frame, unexpected
  /// frame type). Connection-scoped: the daemon closes after sending.
  Malformed = 3,
  /// The daemon is draining; no new requests are admitted.
  ShuttingDown = 4,
};

[[nodiscard]] const char* toString(Status status);

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::Request;
  std::uint64_t id = 0;
  std::string payload;
};

/// Append the binary encoding of one frame to `out`.
void appendFrame(std::string& out, FrameType type, std::uint64_t id,
                 std::string_view payload);

/// Convenience for Response/StatsResponse/Error frames: payload is the
/// Status byte followed by `text`.
void appendStatusFrame(std::string& out, FrameType type, std::uint64_t id,
                       Status status, std::string_view text);

/// Split a status-carrying payload back into (status, text). Returns
/// false for an empty payload or an out-of-range status byte.
bool splitStatusPayload(std::string_view payload, Status& status,
                        std::string_view& text);

/// The event-loop counter block. Field order is the wire order; every
/// counter is a little-endian u64 on the wire so a monitor can diff
/// snapshots without parsing text.
struct StatsCounters {
  std::uint64_t connectionsAccepted = 0;
  std::uint64_t connectionsClosed = 0;
  std::uint64_t framesReceived = 0;
  std::uint64_t requestsAdmitted = 0;
  std::uint64_t responsesSent = 0;
  std::uint64_t rejectedOverload = 0;
  /// Of the overload rejections, those caused by one connection
  /// exhausting its own credits (ServerConfig::clientCredits) rather
  /// than the global queue filling up.
  std::uint64_t rejectedClientCredit = 0;
  std::uint64_t rejectedShutdown = 0;
  std::uint64_t protocolErrors = 0;
  /// Completions whose connection was gone by the time the request
  /// finished — the request itself still ran to completion.
  std::uint64_t disconnectedMidRequest = 0;
  std::uint64_t idleTimeouts = 0;
  /// Event-loop ticks on which a connection hit its per-tick read
  /// budget (ServerConfig::readBudgetBytes) and yielded to its peers.
  std::uint64_t readBudgetExhausted = 0;
  /// Connections shed (accepted then immediately closed) because the
  /// process was out of file descriptors.
  std::uint64_t acceptsShed = 0;

  friend bool operator==(const StatsCounters& a, const StatsCounters& b);
  friend bool operator!=(const StatsCounters& a, const StatsCounters& b) {
    return !(a == b);
  }
};

/// Number of u64 counters in StatsCounters (wire layout).
inline constexpr std::size_t kStatsCounterCount = 13;

inline constexpr std::uint16_t kStatsFrameVersion = 3;

/// The versioned binary stats/health snapshot a StatsBinary request
/// returns. Fixed little-endian layout, 178 bytes:
///
///   offset  size  field
///        0     2  version            (kStatsFrameVersion)
///        2     8  uptimeMs           daemon lifetime
///       10     8  admittedNow        requests in flight right now
///       18     8  connectionsOpen    currently open connections
///       26     8  cancelled          service: cancelled cold compiles
///       34     8  measurements       service: background measurements
///       42     8  measurementsDropped service: queue-full drops
///       50     8  measureQueueBacklog service: queue depth right now
///       58     8  proofsRun          service: symbolic prover runs
///       66     8  proofsRefuted      service: refuted kernels
///       74   104  totals             StatsCounters (13 × u64)
///
/// Version 2 inserted the two prover gauges; version 3 dropped the
/// shard count and the per-shard counter blocks. Decoders reject any
/// other version by the version check, never misparse it.
struct StatsFrame {
  std::uint16_t version = kStatsFrameVersion;
  std::uint64_t uptimeMs = 0;
  std::uint64_t admittedNow = 0;
  std::uint64_t connectionsOpen = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t measurements = 0;
  std::uint64_t measurementsDropped = 0;
  std::uint64_t measureQueueBacklog = 0;
  std::uint64_t proofsRun = 0;
  std::uint64_t proofsRefuted = 0;
  StatsCounters totals;

  friend bool operator==(const StatsFrame& a, const StatsFrame& b);
  friend bool operator!=(const StatsFrame& a, const StatsFrame& b) {
    return !(a == b);
  }
};

/// Serialize a StatsFrame into its wire layout (no frame header; the
/// result rides as the text part of a StatsBinaryResponse payload).
[[nodiscard]] std::string encodeStatsFrame(const StatsFrame& frame);

/// Decode a StatsFrame. Rejects truncated input, trailing bytes, and
/// unknown versions; on failure returns false and, when `error` is
/// non-null, explains why.
bool decodeStatsFrame(std::string_view data, StatsFrame& out,
                      std::string* error = nullptr);

/// Incremental frame decoder: feed bytes as they arrive, pull complete
/// frames out. Both the daemon's per-connection read path and the
/// client use it.
class FrameReader {
 public:
  explicit FrameReader(std::size_t maxPayload = kMaxPayload)
      : max_payload_(maxPayload) {}

  /// Buffer incoming bytes.
  void append(const char* data, std::size_t size);

  enum class Result {
    NeedMore,  ///< no complete frame buffered yet
    Frame,     ///< `out` holds the next frame
    Error,     ///< protocol violation; error() explains. The reader is
               ///< poisoned: every later next() also returns Error.
  };

  /// Decode the next complete frame, if any.
  Result next(Frame& out);

  [[nodiscard]] const std::string& error() const { return error_; }
  /// Bytes currently buffered (for idle/overload accounting).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::size_t max_payload_;
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::string error_;
};

}  // namespace grover::net
