// Serving-path benchmark (DESIGN.md §12): a live groverd serving core —
// real poll() event loop, real TCP loopback sockets — driven by
// concurrent client connections with mixed cold/warm traffic. Reports
// p50/p99 request latency and requests/second for three phases:
//
//   mixed            4 connections, first touch of most keys is a cold
//                    compile, repeats are cache hits
//   serial warm      1 connection, strictly send-wait-receive — the
//                    throughput a single blocking client can extract
//   concurrent warm  4 connections pipelining the same warm traffic,
//                    the way groverc --connect actually drives a daemon
//   polite vs greedy a serial client's p99 while a pipelining client
//                    saturates the daemon past its credit allowance —
//                    the per-connection fair-admission guarantee
//   auto measured    warm AutoRequest latency with measureRate=1 on the
//                    background measurement queue vs measureRate=0 —
//                    measurements must stay off the request path
//
// Exits non-zero when concurrent warm RPS fails to beat the
// single-connection serial baseline, when the polite client's p99
// under greedy saturation exceeds 3x its uncontended p99, or when the
// measured warm p50 exceeds the unmeasured one by more than 20%: if
// the event loop cannot turn concurrency into throughput, keep one
// client from starving another, or keep sampling off the request path,
// the daemon has no reason to exist. Results land in
// BENCH_serving.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "perf/platform.h"
#include "service/compile_service.h"
#include "support/diagnostics.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kConnections = 4;
/// Repetitions of the 33-key grid per phase and connection: a serial
/// warm phase serves 990 requests, so its p99 has about ten samples
/// beyond it (at 3 reps it was the second-largest of 99).
constexpr int kReps = 30;
/// Pipeline window of the concurrent warm phase (groverc --connect
/// uses 64; a smaller window keeps per-request latency meaningful).
constexpr std::size_t kWindow = 16;

struct PhaseResult {
  std::size_t count = 0;
  double wallMs = 0;
  double p50Ms = 0;
  double p99Ms = 0;
  double rps = 0;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

PhaseResult summarize(std::vector<double> latencies, double wallMs) {
  std::sort(latencies.begin(), latencies.end());
  PhaseResult r;
  r.count = latencies.size();
  r.wallMs = wallMs;
  r.p50Ms = percentile(latencies, 0.50);
  r.p99Ms = percentile(latencies, 0.99);
  r.rps = wallMs > 0 ? 1000.0 * static_cast<double>(r.count) / wallMs : 0;
  return r;
}

/// One connection, strictly serial: send a request, wait for the reply,
/// record the round-trip. Returns per-request latencies in ms.
std::vector<double> driveSerial(const std::string& addr,
                                const std::vector<std::string>& lines,
                                int reps, grover::net::FrameType type) {
  grover::net::Client client;
  client.connect(addr);
  std::vector<double> latencies;
  latencies.reserve(lines.size() * static_cast<std::size_t>(reps));
  std::uint64_t id = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& line : lines) {
      const Clock::time_point start = Clock::now();
      client.sendFrame(type, id++, line);
      const grover::net::Frame frame = client.readFrame();
      grover::net::Status status = grover::net::Status::Ok;
      std::string_view text;
      if (!grover::net::splitStatusPayload(frame.payload, status, text) ||
          status != grover::net::Status::Ok) {
        std::cerr << "FATAL: request '" << line << "' failed: "
                  << std::string(text) << "\n";
        std::exit(1);
      }
      latencies.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count());
    }
  }
  return latencies;
}

/// One connection pipelining with a bounded window, like
/// groverc --connect: up to `window` requests in flight, per-request
/// latency measured send-to-matching-response.
std::vector<double> drivePipelined(const std::string& addr,
                                   const std::vector<std::string>& lines,
                                   int reps, std::size_t window,
                                   grover::net::FrameType type) {
  grover::net::Client client;
  client.connect(addr);
  const std::size_t total =
      lines.size() * static_cast<std::size_t>(reps);
  std::vector<Clock::time_point> sentAt(total);
  std::vector<double> latencies(total, 0);
  std::size_t sent = 0, received = 0;
  while (received < total) {
    while (sent < total && sent - received < window) {
      sentAt[sent] = Clock::now();
      client.sendFrame(type, sent, lines[sent % lines.size()]);
      ++sent;
    }
    const grover::net::Frame frame = client.readFrame();
    grover::net::Status status = grover::net::Status::Ok;
    std::string_view text;
    if (!grover::net::splitStatusPayload(frame.payload, status, text) ||
        status != grover::net::Status::Ok || frame.id >= total) {
      std::cerr << "FATAL: request " << frame.id << " failed: "
                << std::string(text) << "\n";
      std::exit(1);
    }
    latencies[frame.id] =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  sentAt[frame.id])
            .count();
    ++received;
  }
  return latencies;
}

/// The greedy client: pipeline far past the daemon's per-connection
/// credits and keep hammering until told to stop, counting served vs
/// Overloaded-rejected replies instead of treating rejection as fatal.
void driveGreedy(const std::string& addr,
                 const std::vector<std::string>& lines, std::size_t window,
                 std::atomic<bool>& stop, std::atomic<std::uint64_t>& served,
                 std::atomic<std::uint64_t>& rejected) {
  grover::net::Client client;
  client.connect(addr);
  std::uint64_t sent = 0, received = 0;
  try {
    while (!stop.load(std::memory_order_relaxed)) {
      while (sent - received < window) {
        client.sendFrame(grover::net::FrameType::Request, sent,
                         lines[sent % lines.size()]);
        ++sent;
      }
      const grover::net::Frame frame = client.readFrame();
      ++received;
      grover::net::Status status = grover::net::Status::Ok;
      std::string_view text;
      if (grover::net::splitStatusPayload(frame.payload, status, text) &&
          status == grover::net::Status::Ok) {
        ++served;
      } else {
        ++rejected;
      }
    }
    while (received < sent) {
      (void)client.readFrame();
      ++received;
    }
  } catch (const grover::GroverError&) {
    // Daemon hung up mid-drain — the bench is shutting the phase down.
  }
}

/// N connections of the same traffic, concurrently; window == 1 means
/// strictly serial clients.
PhaseResult driveConcurrent(const std::string& addr,
                            const std::vector<std::string>& lines,
                            int connections, int reps, std::size_t window,
                            grover::net::FrameType type) {
  std::vector<std::thread> clients;
  std::vector<std::vector<double>> perClient(
      static_cast<std::size_t>(connections));
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      perClient[static_cast<std::size_t>(c)] =
          window <= 1 ? driveSerial(addr, lines, reps, type)
                      : drivePipelined(addr, lines, reps, window, type);
    });
  }
  for (auto& t : clients) t.join();
  const double wallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  std::vector<double> all;
  for (auto& v : perClient) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return summarize(std::move(all), wallMs);
}

void printPhase(const char* name, const PhaseResult& r) {
  using grover::fixed;
  using grover::padRight;
  std::cout << padRight(name, 18) << r.count << " requests in "
            << fixed(r.wallMs, 1) << " ms  p50 " << fixed(r.p50Ms, 3)
            << " ms  p99 " << fixed(r.p99Ms, 3) << " ms  "
            << fixed(r.rps, 0) << " req/s\n";
}

void phaseJson(std::ostringstream& json, const char* name,
               const PhaseResult& r, bool trailingComma) {
  json << "  \"" << name << "\": {\"requests\": " << r.count
       << ", \"wall_ms\": " << r.wallMs << ", \"p50_ms\": " << r.p50Ms
       << ", \"p99_ms\": " << r.p99Ms << ", \"rps\": " << r.rps << "}"
       << (trailingComma ? "," : "") << "\n";
}

}  // namespace

int main() {
  using namespace grover;
  using namespace grover::bench;

  std::cout << "=== groverd serving path: " << kConnections
            << " concurrent connections vs one serial client ===\n\n";

  // The Table IV grid at Test scale: 33 distinct cache keys whose cold
  // compiles are fast enough to keep the bench short, and whose warm
  // hits measure the serving overhead itself.
  std::vector<std::string> lines;
  for (const std::string& app : fig10Apps()) {
    for (const perf::PlatformSpec& platform : perf::cacheOnlyPlatforms()) {
      lines.push_back(app + " " + platform.name + " test");
    }
  }

  service::ServiceConfig serviceConfig;
  service::CompileService service(serviceConfig);
  net::ServerConfig serverConfig;  // ephemeral loopback port
  net::Server server(service, serverConfig);
  server.bind();
  std::thread loop([&] { server.run(); });
  const std::string addr =
      "127.0.0.1:" + std::to_string(server.port());

  // --- mixed phase: every key is cold on first touch, warm after.
  // Identical in-flight requests from different connections coalesce on
  // the single-flight leader, so compiles stay == unique keys.
  const PhaseResult mixed =
      driveConcurrent(addr, lines, kConnections, kReps, /*window=*/1,
                      net::FrameType::Request);
  printPhase("mixed cold/warm", mixed);
  {
    const service::ServiceStats s = service.stats();
    if (s.compiles != lines.size()) {
      std::cerr << "FATAL: " << s.compiles << " compiles for "
                << lines.size() << " unique keys — single-flight broke\n";
      server.requestStop();
      loop.join();
      return 1;
    }
  }

  // --- serial warm baseline: one blocking client, one full round-trip
  // per request — every request pays the whole client/loop/worker/client
  // hop before the next may start.
  const Clock::time_point serialStart = Clock::now();
  std::vector<double> serialLatencies =
      driveSerial(addr, lines, kReps, net::FrameType::Request);
  const double serialWallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - serialStart)
          .count();
  const PhaseResult serial =
      summarize(std::move(serialLatencies), serialWallMs);
  printPhase("serial warm", serial);

  // --- concurrent warm phase: the same traffic the way real clients
  // drive a daemon — several connections, each pipelining — so the
  // event loop batches frames per poll round and responses per send.
  const PhaseResult warm =
      driveConcurrent(addr, lines, kConnections, kReps, kWindow,
                      net::FrameType::Request);
  printPhase("concurrent warm", warm);

  // --- fairness phase: a second serving core over the same warm
  // service, with tight per-connection credits. First the polite
  // client's uncontended baseline; then the same traffic while a
  // greedy pipeliner (window past its credits) saturates the daemon.
  net::ServerConfig fairConfig;
  fairConfig.maxAdmitted = 64;
  fairConfig.clientCredits = 8;
  fairConfig.admitReserve = 8;
  net::Server fairServer(service, fairConfig);
  fairServer.bind();
  std::thread fairLoop([&] { fairServer.run(); });
  const std::string fairAddr =
      "127.0.0.1:" + std::to_string(fairServer.port());

  const Clock::time_point politeAloneStart = Clock::now();
  std::vector<double> politeAloneLat =
      driveSerial(fairAddr, lines, kReps, net::FrameType::Request);
  const PhaseResult politeAlone = summarize(
      std::move(politeAloneLat),
      std::chrono::duration<double, std::milli>(Clock::now() -
                                                politeAloneStart)
          .count());
  printPhase("polite alone", politeAlone);

  std::atomic<bool> stopGreedy{false};
  std::atomic<std::uint64_t> greedyServed{0}, greedyRejected{0};
  std::thread greedy([&] {
    driveGreedy(fairAddr, lines, /*window=*/64, stopGreedy, greedyServed,
                greedyRejected);
  });
  // Let the greedy client reach saturation before measuring.
  while (greedyRejected.load() == 0 && greedyServed.load() < 1000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Clock::time_point politeStart = Clock::now();
  std::vector<double> politeLat =
      driveSerial(fairAddr, lines, kReps, net::FrameType::Request);
  const PhaseResult politeContended = summarize(
      std::move(politeLat),
      std::chrono::duration<double, std::milli>(Clock::now() - politeStart)
          .count());
  printPhase("polite vs greedy", politeContended);
  stopGreedy.store(true);
  greedy.join();
  fairServer.requestStop();
  fairLoop.join();
  std::cout << "greedy client: " << greedyServed.load() << " served, "
            << greedyRejected.load() << " credit-rejected\n";

  // --- measurement phase: warm AutoRequest latency must not pay for
  // sampled measurements. Baseline on the unmeasured main service,
  // then the same traffic against a measureRate=1 service whose
  // samples run on the background queue.
  (void)driveSerial(addr, lines, 1, net::FrameType::AutoRequest);
  const Clock::time_point autoBaseStart = Clock::now();
  std::vector<double> autoBaseLat =
      driveSerial(addr, lines, kReps, net::FrameType::AutoRequest);
  const PhaseResult autoUnmeasured = summarize(
      std::move(autoBaseLat),
      std::chrono::duration<double, std::milli>(Clock::now() -
                                                autoBaseStart)
          .count());
  printPhase("auto unmeasured", autoUnmeasured);

  service::ServiceConfig measuredConfig;
  measuredConfig.measureRate = 1;
  measuredConfig.measureQueueDepth = 64;
  service::CompileService measuredService(measuredConfig);
  net::ServerConfig measuredServerConfig;
  net::Server measuredServer(measuredService, measuredServerConfig);
  measuredServer.bind();
  std::thread measuredLoop([&] { measuredServer.run(); });
  const std::string measuredAddr =
      "127.0.0.1:" + std::to_string(measuredServer.port());
  (void)driveSerial(measuredAddr, lines, 1, net::FrameType::AutoRequest);
  const Clock::time_point autoMeasuredStart = Clock::now();
  std::vector<double> autoMeasuredLat =
      driveSerial(measuredAddr, lines, kReps, net::FrameType::AutoRequest);
  const PhaseResult autoMeasured = summarize(
      std::move(autoMeasuredLat),
      std::chrono::duration<double, std::milli>(Clock::now() -
                                                autoMeasuredStart)
          .count());
  printPhase("auto measured", autoMeasured);
  const std::uint64_t measurementsDone = measuredService.stats().measurements;
  measuredServer.requestStop();
  measuredLoop.join();
  measuredService.shutdown();

  server.requestStop();
  loop.join();
  service.shutdown();

  const double speedup = serial.rps > 0 ? warm.rps / serial.rps : 0;
  std::cout << "\nconcurrent-warm vs serial-warm throughput: "
            << fixed(speedup, 2) << "x\n";
  const double fairnessRatio = politeAlone.p99Ms > 0
                                   ? politeContended.p99Ms / politeAlone.p99Ms
                                   : 0;
  std::cout << "polite p99 under greedy saturation: "
            << fixed(fairnessRatio, 2) << "x uncontended\n";
  const double measuredRatio = autoUnmeasured.p50Ms > 0
                                   ? autoMeasured.p50Ms / autoUnmeasured.p50Ms
                                   : 0;
  std::cout << "measured warm p50 vs unmeasured: "
            << fixed(measuredRatio, 2) << "x (" << measurementsDone
            << " background measurements folded)\n";

  std::ostringstream json;
  json << "{\n  \"connections\": " << kConnections << ",\n  \"reps\": "
       << kReps << ",\n  \"unique_keys\": " << lines.size()
       << ",\n  \"cores\": " << std::thread::hardware_concurrency() << ",\n";
  phaseJson(json, "mixed", mixed, true);
  phaseJson(json, "serial_warm", serial, true);
  phaseJson(json, "concurrent_warm", warm, true);
  phaseJson(json, "polite_alone", politeAlone, true);
  phaseJson(json, "polite_vs_greedy", politeContended, true);
  phaseJson(json, "auto_unmeasured", autoUnmeasured, true);
  phaseJson(json, "auto_measured", autoMeasured, true);
  json << "  \"greedy_served\": " << greedyServed.load()
       << ",\n  \"greedy_rejected\": " << greedyRejected.load()
       << ",\n  \"fairness_p99_ratio\": " << fairnessRatio
       << ",\n  \"measured_p50_ratio\": " << measuredRatio
       << ",\n  \"background_measurements\": " << measurementsDone
       << ",\n  \"warm_speedup\": " << speedup << "\n}\n";
  writeBenchJson("serving", json.str());

  bool failed = false;
  if (warm.rps <= serial.rps) {
    std::cerr << "FATAL: concurrent warm serving (" << fixed(warm.rps, 0)
              << " req/s over " << kConnections
              << " connections) does not beat one serial connection ("
              << fixed(serial.rps, 0) << " req/s)\n";
    failed = true;
  }
  if (greedyRejected.load() == 0) {
    std::cerr << "FATAL: the greedy client was never credit-rejected — "
                 "the fairness phase did not saturate\n";
    failed = true;
  }
  // Small absolute allowance on top of the 3x ratio: the uncontended
  // p99 is sub-millisecond, where scheduler jitter dominates.
  if (politeContended.p99Ms > 3.0 * politeAlone.p99Ms + 5.0) {
    std::cerr << "FATAL: polite client's p99 under greedy saturation ("
              << fixed(politeContended.p99Ms, 3) << " ms) exceeds 3x its "
              << "uncontended p99 (" << fixed(politeAlone.p99Ms, 3)
              << " ms) — per-connection credits are not protecting it\n";
    failed = true;
  }
  if (autoMeasured.p50Ms > 1.2 * autoUnmeasured.p50Ms + 0.5) {
    std::cerr << "FATAL: warm auto p50 with measureRate=1 ("
              << fixed(autoMeasured.p50Ms, 3) << " ms) exceeds the "
              << "unmeasured baseline (" << fixed(autoUnmeasured.p50Ms, 3)
              << " ms) by more than 20% — measurement is back on the "
              << "request path\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
