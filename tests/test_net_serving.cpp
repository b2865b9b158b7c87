// In-process serving tests: a real Server event loop on an ephemeral
// loopback port (run() on its own thread), real Client sockets driving
// it. Covers the concurrency properties the daemon exists for —
// single-flight across connections, shared policy warmth — and the
// failure modes it must survive: malformed and oversized frames,
// clients vanishing mid-request, admission-queue overflow, and a drain
// that completes in-flight work. Warm hits are answered on the event loop
// within each connection's credits; source-file lines never are.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/compile_service.h"
#include "support/diagnostics.h"

namespace {

using grover::GroverError;
using grover::net::Client;
using grover::net::Frame;
using grover::net::FrameType;
using grover::net::Server;
using grover::net::ServerConfig;
using grover::net::StatsCounters;
using grover::net::Status;
using grover::service::CompileService;
using grover::service::ServiceConfig;
using grover::service::ServiceStats;

/// One service + one server + the event loop on a background thread.
struct Serving {
  CompileService service;
  Server server;
  std::thread loop;

  explicit Serving(ServerConfig serverConfig = {},
                   ServiceConfig serviceConfig = {})
      : service(serviceConfig),
        server(service, serverConfig) {
    server.bind();
    loop = std::thread([this] { server.run(); });
  }

  ~Serving() { stop(); }

  void stop() {
    server.requestStop();
    if (loop.joinable()) loop.join();
  }

  [[nodiscard]] std::string addr() const {
    return "127.0.0.1:" + std::to_string(server.port());
  }
};

struct Reply {
  std::uint64_t id = 0;
  Status status = Status::Ok;
  std::string text;
};

Reply readReply(Client& client) {
  const Frame frame = client.readFrame();
  Reply r;
  r.id = frame.id;
  std::string_view text;
  EXPECT_TRUE(grover::net::splitStatusPayload(frame.payload, r.status, text))
      << "unsplittable payload on frame id " << frame.id;
  r.text = std::string(text);
  return r;
}

Reply request(Client& client, const std::string& line, std::uint64_t id,
              FrameType type = FrameType::Request) {
  client.sendFrame(type, id, line);
  return readReply(client);
}

/// Spin until `predicate` holds or ~5 s pass (completions cross threads;
/// stats are eventually consistent with the wire).
template <typename Predicate>
bool eventually(Predicate predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

TEST(NetServing, RoundTripAndPipeliningOnOneConnection) {
  Serving s;
  Client client;
  client.connect(s.addr());

  // Two requests pipelined before any read; ids match them back up.
  client.sendFrame(FrameType::Request, 10, "NVD-MT SNB test");
  client.sendFrame(FrameType::Request, 11, "AMD-SS SNB test");
  const Reply a = readReply(client);
  const Reply b = readReply(client);
  EXPECT_EQ(a.status, Status::Ok) << a.text;
  EXPECT_EQ(b.status, Status::Ok) << b.text;
  EXPECT_TRUE((a.id == 10 && b.id == 11) || (a.id == 11 && b.id == 10));
  EXPECT_EQ(a.text.rfind("ok, ", 0), 0u) << a.text;
}

TEST(NetServing, MalformedGrammarLineFailsTheRequestNotTheConnection) {
  Serving s;
  Client client;
  client.connect(s.addr());

  const Reply bad = request(client, "NVD-MT SNB warp", 1);
  EXPECT_EQ(bad.status, Status::RequestFailed);
  EXPECT_NE(bad.text.find("bad scale"), std::string::npos) << bad.text;

  // The connection survives a failed request.
  const Reply good = request(client, "NVD-MT SNB test", 2);
  EXPECT_EQ(good.status, Status::Ok) << good.text;
}

TEST(NetServing, SingleFlightHoldsAcrossConnections) {
  // 8 client threads hammer the same two request lines; the service must
  // compile each unique key exactly once — everything else is a memory
  // hit or a coalesced join of the in-flight leader.
  Serving s;
  const std::vector<std::string> lines = {"NVD-MT SNB test",
                                          "AMD-SS SNB test"};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;

  std::vector<std::thread> clients;
  std::atomic<int> okCount{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Client client;
      client.connect(s.addr());
      for (int i = 0; i < kPerThread; ++i) {
        const Reply r =
            request(client, lines[(t + i) % lines.size()],
                    static_cast<std::uint64_t>(t * 100 + i));
        if (r.status == Status::Ok) ++okCount;
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(okCount.load(), kThreads * kPerThread);
  const ServiceStats stats = s.service.stats();
  EXPECT_EQ(stats.compiles, lines.size());
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Every request either led, joined the leader, or hit the cache.
  EXPECT_EQ(stats.misses + stats.coalesced + stats.memoryHits,
            stats.requests);
}

TEST(NetServing, PolicyWarmHitCountersAddUp) {
  Serving s;

  // Cold decision first, sequentially, so the store is warm before the
  // concurrent clients arrive.
  {
    Client client;
    client.connect(s.addr());
    const Reply cold =
        request(client, "NVD-MT SNB test", 1, FrameType::AutoRequest);
    ASSERT_EQ(cold.status, Status::Ok) << cold.text;
    EXPECT_NE(cold.text.find("cold decision"), std::string::npos)
        << cold.text;
  }

  constexpr int kWarmClients = 6;
  std::vector<std::thread> clients;
  std::atomic<int> warmHits{0};
  for (int t = 0; t < kWarmClients; ++t) {
    clients.emplace_back([&, t] {
      Client client;
      client.connect(s.addr());
      const Reply r = request(client, "NVD-MT SNB test",
                              static_cast<std::uint64_t>(10 + t),
                              FrameType::AutoRequest);
      if (r.status == Status::Ok &&
          r.text.find("policy hit") != std::string::npos) {
        ++warmHits;
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(warmHits.load(), kWarmClients);
  const ServiceStats stats = s.service.stats();
  EXPECT_EQ(stats.policyMisses, 1u);
  EXPECT_EQ(stats.policyHits, static_cast<std::uint64_t>(kWarmClients));
  EXPECT_EQ(stats.policyHits + stats.policyMisses,
            static_cast<std::uint64_t>(kWarmClients + 1));
}

TEST(NetServing, ClientDisconnectMidRequestNeitherLeaksNorWedges) {
  Serving s;
  {
    // Fire a slow (bench-scale) request, wait until the daemon has
    // admitted it, then vanish before the reply.
    Client doomed;
    doomed.connect(s.addr());
    doomed.sendFrame(FrameType::Request, 1, "NVD-MT SNB bench");
    ASSERT_TRUE(eventually(
        [&] { return s.server.stats().requestsAdmitted == 1; }));
    // RST, not FIN: a plain close is indistinguishable from a polite
    // half-close (which the daemon now serves to completion); a crash
    // looks like a reset.
    doomed.abortiveClose();
  }

  // The in-flight request must complete, its completion must be dropped
  // (not leaked into a dead connection), and the admission slot freed.
  EXPECT_TRUE(eventually([&] {
    return s.server.stats().disconnectedMidRequest == 1;
  })) << "completion for the dead connection never drained";

  // The loop is not wedged: a new client gets served.
  Client client;
  client.connect(s.addr());
  const Reply r = request(client, "AMD-SS SNB test", 2);
  EXPECT_EQ(r.status, Status::Ok) << r.text;

  const StatsCounters stats = s.server.stats();
  EXPECT_EQ(stats.connectionsAccepted, 2u);
  EXPECT_EQ(stats.requestsAdmitted, 2u);
}

TEST(NetServing, AdmissionOverflowIsRejectedNotQueued) {
  ServerConfig serverConfig;
  serverConfig.maxAdmitted = 1;
  ServiceConfig serviceConfig;
  serviceConfig.workers = 1;
  Serving s(serverConfig, serviceConfig);

  Client client;
  client.connect(s.addr());
  // Four distinct slow requests in ONE buffer: the loop decodes them in
  // one batch, admits the first, and must reject the rest immediately —
  // backpressure to the client, not an unbounded queue.
  std::string burst;
  grover::net::appendFrame(burst, FrameType::Request, 1, "NVD-MT SNB bench");
  grover::net::appendFrame(burst, FrameType::Request, 2, "AMD-SS SNB bench");
  grover::net::appendFrame(burst, FrameType::Request, 3, "AMD-MT SNB bench");
  grover::net::appendFrame(burst, FrameType::Request, 4, "AMD-RG SNB bench");
  client.sendRaw(burst);

  int ok = 0, overloaded = 0;
  for (int i = 0; i < 4; ++i) {
    const Reply r = readReply(client);
    if (r.status == Status::Ok) {
      ++ok;
    } else {
      EXPECT_EQ(r.status, Status::Overloaded);
      EXPECT_NE(r.text.find("admission queue full"), std::string::npos)
          << r.text;
      ++overloaded;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(ok + overloaded, 4);
  EXPECT_EQ(s.server.stats().rejectedOverload,
            static_cast<std::uint64_t>(overloaded));

  // Rejection is request-scoped: the connection still serves.
  const Reply after = request(client, "NVD-MT SNB test", 5);
  EXPECT_EQ(after.status, Status::Ok) << after.text;
}

TEST(NetServing, MalformedFrameGetsErrorThenClose) {
  Serving s;
  Client client;
  client.connect(s.addr());

  client.sendRaw("this is not a groverd frame at all");
  const Frame frame = client.readFrame();
  EXPECT_EQ(frame.type, FrameType::Error);
  Status status = Status::Ok;
  std::string_view text;
  ASSERT_TRUE(grover::net::splitStatusPayload(frame.payload, status, text));
  EXPECT_EQ(status, Status::Malformed);
  EXPECT_NE(text.find("magic"), std::string_view::npos)
      << std::string(text);

  // Connection-scoped violation: the daemon hangs up after the error.
  EXPECT_THROW((void)client.readFrame(), GroverError);
  EXPECT_TRUE(eventually([&] {
    const StatsCounters stats = s.server.stats();
    return stats.protocolErrors == 1 && stats.connectionsClosed == 1;
  }));
}

TEST(NetServing, OversizedFrameGetsErrorThenClose) {
  Serving s;
  Client client;
  client.connect(s.addr());

  // A valid header declaring a 2 MiB payload (bound is 1 MiB).
  std::string header;
  grover::net::appendFrame(header, FrameType::Request, 1, "");
  const std::uint32_t huge = 2u << 20;
  header[16] = static_cast<char>(huge & 0xFF);
  header[17] = static_cast<char>((huge >> 8) & 0xFF);
  header[18] = static_cast<char>((huge >> 16) & 0xFF);
  header[19] = static_cast<char>((huge >> 24) & 0xFF);
  client.sendRaw(header);

  const Frame frame = client.readFrame();
  EXPECT_EQ(frame.type, FrameType::Error);
  Status status = Status::Ok;
  std::string_view text;
  ASSERT_TRUE(grover::net::splitStatusPayload(frame.payload, status, text));
  EXPECT_EQ(status, Status::Malformed);
  EXPECT_NE(text.find("oversized"), std::string_view::npos)
      << std::string(text);
  EXPECT_THROW((void)client.readFrame(), GroverError);
}

TEST(NetServing, UnexpectedFrameTypeFromClientIsAProtocolError) {
  Serving s;
  Client client;
  client.connect(s.addr());

  client.sendFrame(FrameType::Response, 1, std::string(1, '\0'));
  const Frame frame = client.readFrame();
  EXPECT_EQ(frame.type, FrameType::Error);
  EXPECT_THROW((void)client.readFrame(), GroverError);
}

TEST(NetServing, StatsFrameReturnsServiceAndServerCounters) {
  Serving s;
  Client client;
  client.connect(s.addr());
  ASSERT_EQ(request(client, "NVD-MT SNB test", 1).status, Status::Ok);

  client.sendFrame(FrameType::Stats, 2, "");
  const Frame frame = client.readFrame();
  EXPECT_EQ(frame.type, FrameType::StatsResponse);
  Status status = Status::RequestFailed;
  std::string_view text;
  ASSERT_TRUE(grover::net::splitStatusPayload(frame.payload, status, text));
  EXPECT_EQ(status, Status::Ok);
  const std::string body(text);
  EXPECT_NE(body.find("cache:"), std::string::npos) << body;
  EXPECT_NE(body.find("server: "), std::string::npos) << body;
  EXPECT_NE(body.find("1 admitted"), std::string::npos) << body;
}

TEST(NetServing, DrainCompletesInFlightRequestsThenExits) {
  ServiceConfig serviceConfig;
  serviceConfig.workers = 1;
  Serving s({}, serviceConfig);

  Client client;
  client.connect(s.addr());
  // Two slow requests on one worker: a wide in-flight window.
  client.sendFrame(FrameType::Request, 1, "NVD-MM-A SNB bench");
  client.sendFrame(FrameType::Request, 2, "NVD-MM-B SNB bench");

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  s.server.requestStop();

  // Both in-flight responses still arrive, then the daemon hangs up.
  const Reply a = readReply(client);
  const Reply b = readReply(client);
  EXPECT_EQ(a.status, Status::Ok) << a.text;
  EXPECT_EQ(b.status, Status::Ok) << b.text;
  EXPECT_THROW((void)client.readFrame(), GroverError);

  s.stop();  // run() must return promptly
  const StatsCounters stats = s.server.stats();
  EXPECT_EQ(stats.responsesSent, 2u);
  EXPECT_EQ(stats.connectionsClosed, stats.connectionsAccepted);
}

TEST(NetServing, RequestsDuringDrainAreRejectedShuttingDown) {
  ServiceConfig serviceConfig;
  serviceConfig.workers = 1;
  Serving s({}, serviceConfig);

  Client client;
  client.connect(s.addr());
  // Keep the connection busy so the drain cannot close it while we poke
  // it with a late request: two heavy requests serialized on one worker
  // hold the in-flight window open well past the sleeps below.
  client.sendFrame(FrameType::Request, 1, "NVD-MM-A SNB bench");
  client.sendFrame(FrameType::Request, 2, "NVD-MM-B SNB bench");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  s.server.requestStop();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  client.sendFrame(FrameType::Request, 3, "AMD-MT SNB test");

  bool sawShutdownReject = false;
  int served = 0;
  for (int i = 0; i < 3; ++i) {
    const Reply r = readReply(client);
    if (r.id == 3) {
      EXPECT_EQ(r.status, Status::ShuttingDown) << r.text;
      sawShutdownReject = r.status == Status::ShuttingDown;
    } else {
      EXPECT_EQ(r.status, Status::Ok) << r.text;
      ++served;
    }
  }
  EXPECT_TRUE(sawShutdownReject);
  EXPECT_EQ(served, 2);
  s.stop();
  EXPECT_EQ(s.server.stats().rejectedShutdown, 1u);
}

TEST(NetServing, IdleConnectionsAreTimedOut) {
  ServerConfig serverConfig;
  serverConfig.idleTimeoutMs = 100;
  Serving s(serverConfig);

  Client client;
  client.connect(s.addr());
  EXPECT_THROW((void)client.readFrame(), GroverError);  // daemon hangs up
  EXPECT_TRUE(eventually([&] {
    return s.server.stats().idleTimeouts == 1;
  }));
}

TEST(NetServing, UnixDomainSocketServes) {
  const std::string path =
      "/tmp/grover_serving_" + std::to_string(::getpid()) + ".sock";
  ServerConfig serverConfig;
  serverConfig.host = "none";
  serverConfig.unixPath = path;
  Serving s(serverConfig);
  EXPECT_EQ(s.server.port(), 0);

  Client client;
  client.connect(path);
  const Reply r = request(client, "NVD-MT SNB test", 1);
  EXPECT_EQ(r.status, Status::Ok) << r.text;
  s.stop();
  ::unlink(path.c_str());
}

TEST(NetServing, HalfCloseServesBufferedRequestsBeforeClosing) {
  // Regression: a client that writes a batch then shutdown(SHUT_WR)
  // used to lose whatever frames were still buffered when the daemon
  // saw EOF. All of them must be served and their responses flushed
  // before the connection closes.
  Serving s;
  Client client;
  client.connect(s.addr());

  // One raw burst so data and FIN land as close together as possible —
  // the regression fired when EOF arrived with frames still undecoded.
  std::string burst;
  const std::vector<std::string> lines = {
      "NVD-MT SNB test", "AMD-SS SNB test", "AMD-MT SNB test",
      "AMD-RG SNB test"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    grover::net::appendFrame(burst, FrameType::Request,
                             static_cast<std::uint64_t>(i + 1), lines[i]);
  }
  client.sendRaw(burst);
  client.shutdownWrite();

  std::size_t okCount = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Reply r = readReply(client);
    if (r.status == Status::Ok) ++okCount;
  }
  EXPECT_EQ(okCount, lines.size());
  // After the last response the daemon closes its side too.
  EXPECT_THROW((void)client.readFrame(), GroverError);
  EXPECT_TRUE(eventually([&] {
    return s.server.stats().connectionsClosed == 1;
  }));
  EXPECT_EQ(s.server.stats().disconnectedMidRequest, 0u);
}

TEST(NetServing, GreedyPipelinerIsRejectedWhilePoliteClientAdmits) {
  // Per-connection credits: one connection pipelining past its
  // allowance is told Overloaded while the global queue still has room
  // for everyone else.
  ServerConfig serverConfig;
  serverConfig.maxAdmitted = 16;
  serverConfig.clientCredits = 2;
  serverConfig.admitReserve = 4;
  serverConfig.workers = 1;  // keep admitted work in flight
  Serving s(serverConfig);

  Client greedy;
  greedy.connect(s.addr());
  constexpr std::size_t kBurst = 6;
  std::string burst;
  for (std::size_t i = 0; i < kBurst; ++i) {
    // Same slow line on purpose: admission is per-frame, upstream
    // coalescing does not hand credits back.
    grover::net::appendFrame(burst, FrameType::Request,
                             static_cast<std::uint64_t>(i + 1),
                             "NVD-MT SNB bench");
  }
  greedy.sendRaw(burst);

  std::size_t okCount = 0, creditRejected = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    const Reply r = readReply(greedy);
    if (r.status == Status::Ok) {
      ++okCount;
    } else {
      EXPECT_EQ(r.status, Status::Overloaded) << r.text;
      EXPECT_NE(r.text.find("per-connection credit limit"),
                std::string::npos)
          << r.text;
      ++creditRejected;
    }
  }
  EXPECT_EQ(okCount, 2u);
  EXPECT_EQ(creditRejected, kBurst - 2);

  // The polite client was never crowded out.
  Client polite;
  polite.connect(s.addr());
  const Reply r = request(polite, "AMD-SS SNB test", 100);
  EXPECT_EQ(r.status, Status::Ok) << r.text;

  const StatsCounters stats = s.server.stats();
  EXPECT_EQ(stats.rejectedClientCredit, kBurst - 2);
  EXPECT_EQ(stats.rejectedOverload, kBurst - 2);
}

/// Prime `line` warm on the daemon: its decision, feature key and full
/// artifact all in memory.
void primeWarm(const Serving& s, const std::string& line) {
  Client client;
  client.connect(s.addr());
  const Reply decided = request(client, line, 1, FrameType::AutoRequest);
  ASSERT_EQ(decided.status, Status::Ok) << decided.text;
  const Reply plain = request(client, line, 2);
  ASSERT_EQ(plain.status, Status::Ok) << plain.text;
}

TEST(NetServing, WarmHitOvertakesAColdCompile) {
  // One worker returns pool replies in order, so a hit sent to the pool
  // waits behind the cold compile ahead of it. Answered on the loop, it
  // comes back first.
  const std::string warmLine = "AMD-SS SNB test";
  for (const FrameType type : {FrameType::Request, FrameType::AutoRequest}) {
    ServerConfig serverConfig;
    serverConfig.workers = 1;
    Serving s(serverConfig);
    primeWarm(s, warmLine);

    Client client;
    client.connect(s.addr());
    std::string burst;
    grover::net::appendFrame(burst, FrameType::Request, 1,
                             "NVD-MT SNB bench");
    grover::net::appendFrame(burst, type, 2, warmLine);
    client.sendRaw(burst);
    const Reply first = readReply(client);
    const Reply second = readReply(client);
    EXPECT_EQ(first.id, 2u) << "the warm hit waited for the cold compile";
    EXPECT_EQ(first.status, Status::Ok) << first.text;
    EXPECT_EQ(second.id, 1u);
    EXPECT_EQ(second.status, Status::Ok) << second.text;
    if (type == FrameType::AutoRequest) {
      EXPECT_NE(first.text.find("policy hit"), std::string::npos)
          << first.text;
    }
  }
}

TEST(NetServing, WarmBurstStaysWithinCredits) {
  // An answer given on the loop holds one of its connection's credits for
  // the poll round: a burst of warm hits past the credits is rejected like
  // a burst of cold requests.
  ServerConfig serverConfig;
  serverConfig.clientCredits = 2;
  serverConfig.workers = 1;
  Serving s(serverConfig);
  const std::string warmLine = "NVD-MT SNB test";
  primeWarm(s, warmLine);

  Client greedy;
  greedy.connect(s.addr());
  constexpr std::size_t kBurst = 6;
  std::string burst;
  for (std::size_t i = 0; i < kBurst; ++i) {
    grover::net::appendFrame(burst, FrameType::Request,
                             static_cast<std::uint64_t>(i + 1), warmLine);
  }
  greedy.sendRaw(burst);
  std::size_t okCount = 0, creditRejected = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    const Reply r = readReply(greedy);
    if (r.status == Status::Ok) {
      ++okCount;
    } else {
      EXPECT_EQ(r.status, Status::Overloaded) << r.text;
      EXPECT_NE(r.text.find("per-connection credit limit"),
                std::string::npos)
          << r.text;
      ++creditRejected;
    }
  }
  EXPECT_EQ(okCount, 2u);
  EXPECT_EQ(creditRejected, kBurst - 2);
  EXPECT_EQ(s.server.stats().rejectedClientCredit, kBurst - 2);

  // A window no larger than the credits is never rejected.
  Client polite;
  polite.connect(s.addr());
  std::string window;
  for (std::size_t i = 0; i < serverConfig.clientCredits; ++i) {
    grover::net::appendFrame(window, FrameType::Request,
                             static_cast<std::uint64_t>(100 + i), warmLine);
  }
  polite.sendRaw(window);
  for (std::size_t i = 0; i < serverConfig.clientCredits; ++i) {
    const Reply r = readReply(polite);
    EXPECT_EQ(r.status, Status::Ok) << r.text;
  }
  EXPECT_EQ(s.server.stats().rejectedClientCredit, kBurst - 2);
}

TEST(NetServing, SourceFileRequestsNeverRunOnTheLoop) {
  // Parsing a `.cl` line reads the file, so even a warm one goes to the
  // pool: with one worker it comes back after the cold compile ahead of
  // it.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("grover_net_loop_" + std::to_string(::getpid()) + ".cl");
  {
    std::ofstream out(path);
    out << R"CL(
__kernel void copy(__global float* out, __global float* in) {
  __local float tile[16];
  int lx = get_local_id(0);
  tile[lx] = in[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  out[get_global_id(0)] = tile[lx];
}
)CL";
  }
  ServerConfig serverConfig;
  serverConfig.workers = 1;
  Serving s(serverConfig);
  Client client;
  client.connect(s.addr());
  const std::string fileLine = path.string() + " copy";
  const Reply primed = request(client, fileLine, 100);
  ASSERT_EQ(primed.status, Status::Ok) << primed.text;

  std::string burst;
  grover::net::appendFrame(burst, FrameType::Request, 1, "NVD-MT SNB bench");
  grover::net::appendFrame(burst, FrameType::Request, 2, fileLine);
  client.sendRaw(burst);
  const Reply first = readReply(client);
  const Reply second = readReply(client);
  EXPECT_EQ(first.id, 1u) << "the file line was answered on the loop";
  EXPECT_EQ(first.status, Status::Ok) << first.text;
  EXPECT_EQ(second.id, 2u);
  EXPECT_EQ(second.status, Status::Ok) << second.text;
  EXPECT_EQ(second.text, primed.text);
  std::filesystem::remove(path);
}

TEST(NetServing, DisconnectDuringColdCompileCancelsAndCachesNothing) {
  Serving s;
  {
    Client doomed;
    doomed.connect(s.addr());
    doomed.sendFrame(FrameType::Request, 1, "NVD-MT SNB bench");
    // Wait for the cold compile to be in flight, then vanish (RST).
    ASSERT_TRUE(
        eventually([&] { return s.service.stats().misses == 1; }));
    doomed.abortiveClose();
  }

  // Every waiter is gone: the compile is abandoned at the next stage
  // boundary and counted, and its completion is dropped.
  EXPECT_TRUE(eventually([&] {
    return s.service.stats().cancelled == 1;
  })) << "cold compile for the vanished client was never cancelled";
  EXPECT_TRUE(eventually([&] {
    return s.server.stats().disconnectedMidRequest == 1;
  }));

  // Nothing — not even a negative artifact — was cached: the same
  // request from a live client compiles fresh and succeeds.
  Client client;
  client.connect(s.addr());
  const Reply r = request(client, "NVD-MT SNB bench", 2);
  EXPECT_EQ(r.status, Status::Ok) << r.text;
  EXPECT_EQ(r.text.rfind("ok, ", 0), 0u) << r.text;
  const ServiceStats stats = s.service.stats();
  EXPECT_EQ(stats.negativeHits, 0u);
  EXPECT_EQ(stats.misses, 2u);  // fresh compile, not a cache hit
}

TEST(NetServing, BackgroundMeasurementAnswersBeforeTheSampleFolds) {
  // measureRate=1 with a background queue: the response must come back
  // without the "measured np" suffix (the sample runs off the request
  // path) and the measurement must fold in afterwards.
  ServiceConfig serviceConfig;
  serviceConfig.measureRate = 1;
  serviceConfig.measureQueueDepth = 8;
  Serving s({}, serviceConfig);

  Client client;
  client.connect(s.addr());
  const Reply cold =
      request(client, "NVD-MT SNB test", 1, FrameType::AutoRequest);
  EXPECT_EQ(cold.status, Status::Ok) << cold.text;
  EXPECT_EQ(cold.text.find("measured np"), std::string::npos) << cold.text;

  EXPECT_TRUE(eventually([&] {
    return s.service.stats().measurements >= 1;
  })) << "background measurement never completed";

  // The stats frame exposes the folded sample.
  client.sendFrame(FrameType::Stats, 2, "");
  const Reply stats = readReply(client);
  EXPECT_EQ(stats.status, Status::Ok);
  EXPECT_NE(stats.text.find(" measured ("), std::string::npos)
      << stats.text;
}

TEST(NetServing, ReadBudgetYieldsBetweenConnections) {
  // Loop fairness: one connection's firehose is drained at most
  // readBudgetBytes per tick; every frame is still served.
  ServerConfig serverConfig;
  serverConfig.readBudgetBytes = 4096;
  Serving s(serverConfig);

  Client client;
  client.connect(s.addr());
  constexpr std::size_t kFrames = 1000;  // ~20 KiB of headers
  std::string burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    grover::net::appendFrame(burst, FrameType::Stats,
                             static_cast<std::uint64_t>(i + 1), "");
  }
  client.sendRaw(burst);

  for (std::size_t i = 0; i < kFrames; ++i) {
    const Reply r = readReply(client);
    EXPECT_EQ(r.status, Status::Ok);
  }
  EXPECT_GE(s.server.stats().readBudgetExhausted, 1u);
}

TEST(NetServing, EmfileAcceptStormShedsAndRecovers) {
  ServerConfig serverConfig;
  serverConfig.acceptBackoffMs = 50;
  Serving s(serverConfig);

  // An established connection that must keep working throughout.
  Client veteran;
  veteran.connect(s.addr());
  EXPECT_EQ(request(veteran, "NVD-MT SNB test", 1).status, Status::Ok);

  // Clamp RLIMIT_NOFILE so exactly one more fd fits: the next client's
  // own socket. The daemon's accept() then has nothing left and must
  // hit EMFILE.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int probe = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(probe, 0);
  const rlim_t ceiling = static_cast<rlim_t>(probe) + 1;
  ::close(probe);
  rlimit tight = saved;
  tight.rlim_cur = ceiling;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  // The handshake completes in the kernel backlog, then the daemon
  // sheds the connection (accept → immediate close) instead of leaving
  // it wedged in the backlog forever.
  {
    Client shed;
    bool rejected = false;
    try {
      shed.connect(s.addr());
      (void)request(shed, "NVD-MT SNB test", 2);
    } catch (const GroverError&) {
      rejected = true;
    }
    EXPECT_TRUE(rejected);
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_TRUE(
      eventually([&] { return s.server.stats().acceptsShed >= 1; }));

  // With descriptors back (and the backoff expired), service resumes —
  // for the veteran and for new clients alike.
  EXPECT_EQ(request(veteran, "AMD-SS SNB test", 3).status, Status::Ok);
  EXPECT_TRUE(eventually([&] {
    try {
      Client fresh;
      fresh.connect(s.addr());
      return request(fresh, "NVD-MT SNB test", 4).status == Status::Ok;
    } catch (const GroverError&) {
      return false;
    }
  }));
}

TEST(NetServing, BinaryStatsFrameRoundTripsOverTheWire) {
  Serving s;

  Client client;
  client.connect(s.addr());
  ASSERT_EQ(request(client, "NVD-MT SNB test", 1).status, Status::Ok);

  client.sendFrame(FrameType::StatsBinary, 2, "");
  const Frame frame = client.readFrame();
  ASSERT_EQ(frame.type, FrameType::StatsBinaryResponse);
  Status status = Status::RequestFailed;
  std::string_view payload;
  ASSERT_TRUE(
      grover::net::splitStatusPayload(frame.payload, status, payload));
  ASSERT_EQ(status, Status::Ok);

  grover::net::StatsFrame decoded;
  std::string error;
  ASSERT_TRUE(grover::net::decodeStatsFrame(payload, decoded, &error))
      << error;
  EXPECT_EQ(decoded.version, grover::net::kStatsFrameVersion);
  EXPECT_EQ(decoded.totals.connectionsAccepted, 1u);
  EXPECT_EQ(decoded.totals.requestsAdmitted, 1u);
  EXPECT_EQ(decoded.totals.responsesSent, 1u);
  EXPECT_EQ(decoded.connectionsOpen, 1u);
  EXPECT_EQ(decoded.admittedNow, 0u);
}

/// Count open descriptors via /proc/self/fd (Linux). The readdir fd
/// itself is included both times, so before/after comparisons hold.
int openFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(NetServing, ClientConnectFailureLeaksNoFdsAndReportsLastErrno) {
  // Regression for the multi-address connect walk: each failed
  // attempt's socket must be closed before the next, the addrinfo list
  // freed on the throw path, and the error must carry the LAST errno —
  // not a stale first one or strerror(0) ("Success").
  //
  // A bound-but-never-listening socket pins a port that refuses
  // connections for the whole test: no raced rebind window.
  const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(blocker, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(blocker, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(blocker, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  const int before = openFdCount();
  ASSERT_GT(before, 0);
  // "localhost" may resolve to several addresses (v4 and v6); every one
  // must be walked and every attempt's socket closed.
  const std::string spec = "localhost:" + std::to_string(port);
  for (int i = 0; i < 8; ++i) {
    Client client;
    try {
      client.connect(spec);
      FAIL() << "connect to a non-listening port succeeded";
    } catch (const GroverError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("cannot connect"), std::string::npos) << what;
      EXPECT_NE(what.find("refused"), std::string::npos) << what;
      EXPECT_EQ(what.find("Success"), std::string::npos) << what;
    }
    EXPECT_FALSE(client.connected());
  }
  EXPECT_EQ(openFdCount(), before) << "connect() walk leaked fds";
  ::close(blocker);
}

TEST(NetServing, SecondDaemonCannotHijackALiveUnixSocket) {
  // Regression for the stale-socket unlink race: bind() used to unlink
  // the path unconditionally, so a second daemon would silently steal —
  // and on exit delete — a live daemon's socket. Now the path is only
  // reclaimed after a probe connect() proves it dead (ECONNREFUSED).
  const std::string path =
      "/tmp/grover_hijack_" + std::to_string(::getpid()) + ".sock";
  ServerConfig serverConfig;
  serverConfig.host = "none";
  serverConfig.unixPath = path;
  Serving first(serverConfig);

  {
    CompileService secondService{ServiceConfig{}};
    Server second(secondService, serverConfig);
    EXPECT_THROW(second.bind(), GroverError);
  }  // ~Server of the loser must NOT unlink the winner's socket

  // The first daemon still owns the path and still serves.
  Client client;
  client.connect(path);
  const Reply r = request(client, "NVD-MT SNB test", 1);
  EXPECT_EQ(r.status, Status::Ok) << r.text;
  first.stop();
  ::unlink(path.c_str());
}

TEST(NetServing, StaleUnixSocketFileIsReclaimed) {
  // A socket file whose owner died (bound once, never unlinked) probes
  // ECONNREFUSED; a new daemon must reclaim the path and serve.
  const std::string path =
      "/tmp/grover_stale_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);  // dead owner: the file stays behind
  }

  ServerConfig serverConfig;
  serverConfig.host = "none";
  serverConfig.unixPath = path;
  Serving s(serverConfig);
  Client client;
  client.connect(path);
  const Reply r = request(client, "AMD-SS SNB test", 1);
  EXPECT_EQ(r.status, Status::Ok) << r.text;
  s.stop();
  ::unlink(path.c_str());
}

TEST(NetServing, SlowRequestIsNotIdleClosedWhileInFlight) {
  // Regression: an idle timeout shorter than a cold compile must not
  // close the connection that is waiting on it — in-flight requests pin
  // the connection, and admission/completion both count as activity.
  ServerConfig serverConfig;
  serverConfig.idleTimeoutMs = 50;
  Serving s(serverConfig);

  Client client;
  client.connect(s.addr());
  // A bench-scale request: far slower than 50 ms of wall clock.
  const Reply r = request(client, "NVD-MT SNB bench", 1);
  EXPECT_EQ(r.status, Status::Ok) << r.text;
  EXPECT_EQ(s.server.stats().idleTimeouts, 0u)
      << "connection idle-closed while its request was in flight";

  // With the response delivered and the connection now genuinely idle,
  // the timeout applies again.
  EXPECT_THROW((void)client.readFrame(), GroverError);
  EXPECT_TRUE(
      eventually([&] { return s.server.stats().idleTimeouts == 1; }));
}

}  // namespace
