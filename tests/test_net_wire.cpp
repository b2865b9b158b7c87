// Frame codec round-trips and protocol-violation handling: the decoder
// must survive byte-at-a-time delivery (TCP does not respect frame
// boundaries) and must poison itself on the first malformed header so a
// connection never resynchronises onto garbage.
#include <gtest/gtest.h>

#include <string>

#include "net/wire.h"

namespace {

using grover::net::appendFrame;
using grover::net::appendStatusFrame;
using grover::net::Frame;
using grover::net::FrameReader;
using grover::net::FrameType;
using grover::net::kHeaderSize;
using grover::net::splitStatusPayload;
using grover::net::Status;

TEST(NetWire, RoundTripSingleFrame) {
  std::string bytes;
  appendFrame(bytes, FrameType::Request, 42, "NVD-MT SNB test");
  ASSERT_EQ(bytes.size(), kHeaderSize + 15);

  FrameReader reader;
  reader.append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Result::Frame);
  EXPECT_EQ(frame.type, FrameType::Request);
  EXPECT_EQ(frame.id, 42u);
  EXPECT_EQ(frame.payload, "NVD-MT SNB test");
  EXPECT_EQ(reader.next(frame), FrameReader::Result::NeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(NetWire, ByteAtATimeDeliveryDecodesPipelinedFrames) {
  std::string bytes;
  appendFrame(bytes, FrameType::Request, 1, "AMD-SS SNB test");
  appendFrame(bytes, FrameType::AutoRequest, 2, "NVD-MT none");
  appendFrame(bytes, FrameType::Stats, 3, "");

  FrameReader reader;
  std::vector<Frame> frames;
  for (char byte : bytes) {
    reader.append(&byte, 1);
    Frame frame;
    while (reader.next(frame) == FrameReader::Result::Frame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].id, 1u);
  EXPECT_EQ(frames[0].payload, "AMD-SS SNB test");
  EXPECT_EQ(frames[1].type, FrameType::AutoRequest);
  EXPECT_EQ(frames[1].id, 2u);
  EXPECT_EQ(frames[2].type, FrameType::Stats);
  EXPECT_TRUE(frames[2].payload.empty());
}

TEST(NetWire, MaxIdRoundTrips) {
  std::string bytes;
  const std::uint64_t id = ~0ull;
  appendFrame(bytes, FrameType::Response, id, "x");
  FrameReader reader;
  reader.append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Result::Frame);
  EXPECT_EQ(frame.id, id);
}

TEST(NetWire, StatusPayloadRoundTrips) {
  std::string bytes;
  appendStatusFrame(bytes, FrameType::Response, 7, Status::Overloaded,
                    "error: admission queue full");
  FrameReader reader;
  reader.append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Result::Frame);

  Status status = Status::Ok;
  std::string_view text;
  ASSERT_TRUE(splitStatusPayload(frame.payload, status, text));
  EXPECT_EQ(status, Status::Overloaded);
  EXPECT_EQ(text, "error: admission queue full");
}

TEST(NetWire, SplitStatusRejectsEmptyAndOutOfRange) {
  Status status = Status::Ok;
  std::string_view text;
  EXPECT_FALSE(splitStatusPayload("", status, text));
  const char bad[] = {99, 'h', 'i'};
  EXPECT_FALSE(splitStatusPayload(std::string_view(bad, 3), status, text));
}

TEST(NetWire, BadMagicPoisonsTheReader) {
  std::string bytes;
  appendFrame(bytes, FrameType::Request, 1, "x");
  bytes[0] = 'X';  // corrupt the magic
  // A valid frame behind the garbage must NOT be recovered: there is no
  // resynchronisation, the stream is dead.
  appendFrame(bytes, FrameType::Request, 2, "y");

  FrameReader reader;
  reader.append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Result::Error);
  EXPECT_NE(reader.error().find("magic"), std::string::npos)
      << reader.error();
  EXPECT_EQ(reader.next(frame), FrameReader::Result::Error);
}

TEST(NetWire, UnsupportedVersionIsRejected) {
  std::string bytes;
  appendFrame(bytes, FrameType::Request, 1, "x");
  bytes[4] = 2;  // version field, little-endian low byte

  FrameReader reader;
  reader.append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Result::Error);
  EXPECT_NE(reader.error().find("version"), std::string::npos)
      << reader.error();
}

TEST(NetWire, UnknownFrameTypeIsRejected) {
  std::string bytes;
  appendFrame(bytes, FrameType::Request, 1, "x");
  bytes[6] = 0x7F;  // type field, little-endian low byte

  FrameReader reader;
  reader.append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Result::Error);
  EXPECT_NE(reader.error().find("type"), std::string::npos)
      << reader.error();
}

TEST(NetWire, OversizedDeclaredPayloadIsRejectedWithoutBuffering) {
  // Header declaring a payload beyond the bound, with no payload bytes
  // behind it: the decoder must refuse from the header alone instead of
  // waiting for (and buffering) a gigabyte that never comes.
  std::string bytes;
  appendFrame(bytes, FrameType::Request, 1, "");
  const std::uint32_t huge = 2u << 20;
  bytes[16] = static_cast<char>(huge & 0xFF);
  bytes[17] = static_cast<char>((huge >> 8) & 0xFF);
  bytes[18] = static_cast<char>((huge >> 16) & 0xFF);
  bytes[19] = static_cast<char>((huge >> 24) & 0xFF);

  FrameReader reader;
  reader.append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Result::Error);
  EXPECT_NE(reader.error().find("oversized"), std::string::npos)
      << reader.error();
}

TEST(NetWire, CustomPayloadBoundIsEnforced) {
  std::string bytes;
  appendFrame(bytes, FrameType::Request, 1, std::string(64, 'a'));
  FrameReader reader(/*maxPayload=*/16);
  reader.append(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(reader.next(frame), FrameReader::Result::Error);
}

grover::net::StatsFrame sampleStatsFrame() {
  // Every field non-zero and distinct so a byte transposed anywhere in
  // the layout changes the decoded struct.
  grover::net::StatsFrame f;
  f.uptimeMs = 12345;
  f.admittedNow = 3;
  f.connectionsOpen = 7;
  f.cancelled = 2;
  f.measurements = 41;
  f.measurementsDropped = 5;
  f.measureQueueBacklog = 11;
  f.proofsRun = 17;
  f.proofsRefuted = 4;
  std::uint64_t v = 100;
  const auto fill = [&v](grover::net::StatsCounters& c) {
    c.connectionsAccepted = v++;
    c.connectionsClosed = v++;
    c.framesReceived = v++;
    c.requestsAdmitted = v++;
    c.responsesSent = v++;
    c.rejectedOverload = v++;
    c.rejectedClientCredit = v++;
    c.rejectedShutdown = v++;
    c.protocolErrors = v++;
    c.disconnectedMidRequest = v++;
    c.idleTimeouts = v++;
    c.readBudgetExhausted = v++;
    c.acceptsShed = v++;
  };
  fill(f.totals);
  return f;
}

TEST(NetWire, StatsFrameRoundTrips) {
  const grover::net::StatsFrame original = sampleStatsFrame();
  const std::string bytes = grover::net::encodeStatsFrame(original);
  // u16 version, 9 u64 health fields, then the 13 u64 counters.
  EXPECT_EQ(bytes.size(), 2 + 9 * 8 + 13 * 8);

  grover::net::StatsFrame decoded;
  std::string error;
  ASSERT_TRUE(grover::net::decodeStatsFrame(bytes, decoded, &error))
      << error;
  EXPECT_EQ(decoded, original);
}

TEST(NetWire, StatsFrameTruncationIsRejectedAtEveryLength) {
  // Like the frame decoder, the stats decoder must never read past the
  // bytes it was handed: EVERY proper prefix is an error, not a crash
  // or a half-decoded struct.
  const std::string bytes =
      grover::net::encodeStatsFrame(sampleStatsFrame());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    grover::net::StatsFrame decoded;
    std::string error;
    EXPECT_FALSE(grover::net::decodeStatsFrame(
        std::string_view(bytes.data(), cut), decoded, &error))
        << "prefix of " << cut << " bytes decoded";
    EXPECT_NE(error.find("truncated"), std::string::npos)
        << "cut at " << cut << ": " << error;
  }
}

TEST(NetWire, StatsFrameTrailingBytesAreRejected) {
  std::string bytes = grover::net::encodeStatsFrame(sampleStatsFrame());
  bytes += '\0';
  grover::net::StatsFrame decoded;
  std::string error;
  EXPECT_FALSE(grover::net::decodeStatsFrame(bytes, decoded, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(NetWire, StatsFrameUnknownVersionIsRejected) {
  // Version 2 is the layout v3 replaced (a shard count after the
  // version, then per-shard counter blocks); it must fail the version
  // check, never be misparsed as v3.
  for (const int version : {2, grover::net::kStatsFrameVersion + 1}) {
    std::string bytes = grover::net::encodeStatsFrame(sampleStatsFrame());
    bytes[0] = static_cast<char>(version);
    grover::net::StatsFrame decoded;
    std::string error;
    EXPECT_FALSE(grover::net::decodeStatsFrame(bytes, decoded, &error));
    EXPECT_NE(error.find("unsupported stats frame version " +
                         std::to_string(version)),
              std::string::npos)
        << error;
  }
}

TEST(NetWire, StatsBinaryFrameTypesRideTheFrameCodec) {
  // The binary stats payload travels inside an ordinary frame; the
  // codec must pass the new types and the raw bytes through untouched.
  const std::string payload =
      grover::net::encodeStatsFrame(sampleStatsFrame());
  std::string bytes;
  appendFrame(bytes, FrameType::StatsBinary, 5, "");
  appendFrame(bytes, FrameType::StatsBinaryResponse, 5, payload);

  FrameReader reader;
  reader.append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Result::Frame);
  EXPECT_EQ(frame.type, FrameType::StatsBinary);
  ASSERT_EQ(reader.next(frame), FrameReader::Result::Frame);
  EXPECT_EQ(frame.type, FrameType::StatsBinaryResponse);
  ASSERT_EQ(frame.payload, payload);
  grover::net::StatsFrame decoded;
  EXPECT_TRUE(grover::net::decodeStatsFrame(frame.payload, decoded,
                                            nullptr));
}

TEST(NetWire, PartialHeaderAndPayloadNeedMore) {
  std::string bytes;
  appendFrame(bytes, FrameType::Request, 9, "hello world");

  FrameReader reader;
  Frame frame;
  reader.append(bytes.data(), kHeaderSize - 1);  // header short one byte
  EXPECT_EQ(reader.next(frame), FrameReader::Result::NeedMore);
  reader.append(bytes.data() + kHeaderSize - 1, 1);  // header complete
  EXPECT_EQ(reader.next(frame), FrameReader::Result::NeedMore);
  EXPECT_EQ(reader.buffered(), kHeaderSize);
  reader.append(bytes.data() + kHeaderSize, bytes.size() - kHeaderSize);
  ASSERT_EQ(reader.next(frame), FrameReader::Result::Frame);
  EXPECT_EQ(frame.payload, "hello world");
}

}  // namespace
