#include "net/wire.h"

#include <cstring>
#include <utility>

#include "support/str.h"

namespace grover::net {
namespace {

void putU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint16_t getU16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t getU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t getU64(const char* p) {
  std::uint64_t v = 0;
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

bool knownType(std::uint16_t t) {
  return t >= static_cast<std::uint16_t>(FrameType::Request) &&
         t <= static_cast<std::uint16_t>(FrameType::StatsBinaryResponse);
}

// A StatsFrame on the wire: version u16, nine u64 health fields, then
// the counter block.
constexpr std::size_t kStatsFramePrefix = 2 + 9 * 8;
constexpr std::size_t kStatsFrameBytes =
    kStatsFramePrefix + kStatsCounterCount * 8;

void putCounters(std::string& out, const StatsCounters& c) {
  putU64(out, c.connectionsAccepted);
  putU64(out, c.connectionsClosed);
  putU64(out, c.framesReceived);
  putU64(out, c.requestsAdmitted);
  putU64(out, c.responsesSent);
  putU64(out, c.rejectedOverload);
  putU64(out, c.rejectedClientCredit);
  putU64(out, c.rejectedShutdown);
  putU64(out, c.protocolErrors);
  putU64(out, c.disconnectedMidRequest);
  putU64(out, c.idleTimeouts);
  putU64(out, c.readBudgetExhausted);
  putU64(out, c.acceptsShed);
}

void getCounters(const char* p, StatsCounters& c) {
  c.connectionsAccepted = getU64(p + 0 * 8);
  c.connectionsClosed = getU64(p + 1 * 8);
  c.framesReceived = getU64(p + 2 * 8);
  c.requestsAdmitted = getU64(p + 3 * 8);
  c.responsesSent = getU64(p + 4 * 8);
  c.rejectedOverload = getU64(p + 5 * 8);
  c.rejectedClientCredit = getU64(p + 6 * 8);
  c.rejectedShutdown = getU64(p + 7 * 8);
  c.protocolErrors = getU64(p + 8 * 8);
  c.disconnectedMidRequest = getU64(p + 9 * 8);
  c.idleTimeouts = getU64(p + 10 * 8);
  c.readBudgetExhausted = getU64(p + 11 * 8);
  c.acceptsShed = getU64(p + 12 * 8);
}

}  // namespace

bool operator==(const StatsCounters& a, const StatsCounters& b) {
  return a.connectionsAccepted == b.connectionsAccepted &&
         a.connectionsClosed == b.connectionsClosed &&
         a.framesReceived == b.framesReceived &&
         a.requestsAdmitted == b.requestsAdmitted &&
         a.responsesSent == b.responsesSent &&
         a.rejectedOverload == b.rejectedOverload &&
         a.rejectedClientCredit == b.rejectedClientCredit &&
         a.rejectedShutdown == b.rejectedShutdown &&
         a.protocolErrors == b.protocolErrors &&
         a.disconnectedMidRequest == b.disconnectedMidRequest &&
         a.idleTimeouts == b.idleTimeouts &&
         a.readBudgetExhausted == b.readBudgetExhausted &&
         a.acceptsShed == b.acceptsShed;
}

bool operator==(const StatsFrame& a, const StatsFrame& b) {
  return a.version == b.version && a.uptimeMs == b.uptimeMs &&
         a.admittedNow == b.admittedNow &&
         a.connectionsOpen == b.connectionsOpen &&
         a.cancelled == b.cancelled && a.measurements == b.measurements &&
         a.measurementsDropped == b.measurementsDropped &&
         a.measureQueueBacklog == b.measureQueueBacklog &&
         a.proofsRun == b.proofsRun && a.proofsRefuted == b.proofsRefuted &&
         a.totals == b.totals;
}

std::string encodeStatsFrame(const StatsFrame& frame) {
  std::string out;
  out.reserve(kStatsFrameBytes);
  putU16(out, frame.version);
  putU64(out, frame.uptimeMs);
  putU64(out, frame.admittedNow);
  putU64(out, frame.connectionsOpen);
  putU64(out, frame.cancelled);
  putU64(out, frame.measurements);
  putU64(out, frame.measurementsDropped);
  putU64(out, frame.measureQueueBacklog);
  putU64(out, frame.proofsRun);
  putU64(out, frame.proofsRefuted);
  putCounters(out, frame.totals);
  return out;
}

bool decodeStatsFrame(std::string_view data, StatsFrame& out,
                      std::string* error) {
  const auto fail = [&](std::string why) {
    if (error) *error = std::move(why);
    return false;
  };
  if (data.size() < 2) return fail("stats frame truncated before header");
  const std::uint16_t version = getU16(data.data());
  if (version != kStatsFrameVersion) {
    return fail(cat("unsupported stats frame version ", version,
                    " (this build speaks v", kStatsFrameVersion, ")"));
  }
  if (data.size() < kStatsFrameBytes) {
    return fail(cat("stats frame truncated: ", data.size(), " bytes, need ",
                    kStatsFrameBytes));
  }
  if (data.size() > kStatsFrameBytes) {
    return fail(cat("stats frame has ", data.size() - kStatsFrameBytes,
                    " trailing bytes"));
  }
  const char* p = data.data();
  out.version = version;
  out.uptimeMs = getU64(p + 2);
  out.admittedNow = getU64(p + 10);
  out.connectionsOpen = getU64(p + 18);
  out.cancelled = getU64(p + 26);
  out.measurements = getU64(p + 34);
  out.measurementsDropped = getU64(p + 42);
  out.measureQueueBacklog = getU64(p + 50);
  out.proofsRun = getU64(p + 58);
  out.proofsRefuted = getU64(p + 66);
  getCounters(p + kStatsFramePrefix, out.totals);
  return true;
}

const char* toString(Status status) {
  switch (status) {
    case Status::Ok: return "ok";
    case Status::RequestFailed: return "request failed";
    case Status::Overloaded: return "overloaded";
    case Status::Malformed: return "malformed";
    case Status::ShuttingDown: return "shutting down";
  }
  return "unknown";
}

void appendFrame(std::string& out, FrameType type, std::uint64_t id,
                 std::string_view payload) {
  out.append(reinterpret_cast<const char*>(kMagic), 4);
  putU16(out, kProtocolVersion);
  putU16(out, static_cast<std::uint16_t>(type));
  putU64(out, id);
  putU32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
}

void appendStatusFrame(std::string& out, FrameType type, std::uint64_t id,
                       Status status, std::string_view text) {
  std::string payload;
  payload.reserve(1 + text.size());
  payload.push_back(static_cast<char>(status));
  payload.append(text.data(), text.size());
  appendFrame(out, type, id, payload);
}

bool splitStatusPayload(std::string_view payload, Status& status,
                        std::string_view& text) {
  if (payload.empty()) return false;
  const auto raw = static_cast<unsigned char>(payload[0]);
  if (raw > static_cast<unsigned char>(Status::ShuttingDown)) return false;
  status = static_cast<Status>(raw);
  text = payload.substr(1);
  return true;
}

void FrameReader::append(const char* data, std::size_t size) {
  // Compact the consumed prefix before it outgrows one frame's worth.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > kMaxPayload) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, size);
}

FrameReader::Result FrameReader::next(Frame& out) {
  if (!error_.empty()) return Result::Error;
  if (buffered() < kHeaderSize) return Result::NeedMore;
  const char* h = buf_.data() + pos_;
  if (std::memcmp(h, kMagic, 4) != 0) {
    error_ = "bad magic (not a groverd frame)";
    return Result::Error;
  }
  const std::uint16_t version = getU16(h + 4);
  if (version != kProtocolVersion) {
    error_ = cat("unsupported protocol version ", version,
                 " (this build speaks v", kProtocolVersion, ")");
    return Result::Error;
  }
  const std::uint16_t rawType = getU16(h + 6);
  if (!knownType(rawType)) {
    error_ = cat("unknown frame type ", rawType);
    return Result::Error;
  }
  const std::uint32_t size = getU32(h + 16);
  if (size > max_payload_) {
    error_ = cat("oversized frame: ", size, " bytes (limit ", max_payload_,
                 ")");
    return Result::Error;
  }
  if (buffered() < kHeaderSize + size) return Result::NeedMore;
  out.type = static_cast<FrameType>(rawType);
  out.id = getU64(h + 8);
  out.payload.assign(buf_, pos_ + kHeaderSize, size);
  pos_ += kHeaderSize + size;
  return Result::Frame;
}

}  // namespace grover::net
