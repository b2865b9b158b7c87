// groverd — the Grover compilation-serving daemon: one warm
// CompileService (artifact cache, single-flight, policy store, sampled
// measurements) behind a socket front-end, so many groverc clients share
// one process's caches and one learning policy store instead of each
// re-warming their own (DESIGN.md §12).
//
// Usage:
//   groverd [--port=P] [--host=A] [--socket=PATH] [--threads=N]
//           [--max-queue=N] [--client-credits=N]
//           [--cache-mb=M] [--cache-dir=DIR] [--policy-dir=DIR]
//           [--measure-rate=<f>] [--measure-queue-depth=N]
//           [--prove] [--policy-horizon-ms=N]
//           [--idle-timeout-ms=N] [--health-interval=N]
//           [--version] [--help]
//
// The daemon listens on 127.0.0.1:<port> (port 0 = ephemeral; the bound
// port is printed on the "listening on" line) and optionally on a
// Unix-domain socket. SIGINT/SIGTERM drain gracefully: in-flight
// requests complete, new ones are rejected with a shutting-down status,
// and the process exits 0 after logging final stats.
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "native/engine.h"
#include "net/render.h"
#include "net/server.h"
#include "service/compile_service.h"
#include "support/diagnostics.h"
#include "support/flags.h"
#include "support/version.h"

namespace {

grover::net::Server* g_server = nullptr;

extern "C" void handleStopSignal(int) {
  if (g_server != nullptr) g_server->requestStop();
}

void usage() {
  std::cerr <<
      "usage: groverd [options]\n"
      "  --port=P            TCP port to listen on (default 0 = pick an\n"
      "                      ephemeral port, printed at startup)\n"
      "  --host=A            IPv4 listen address (default 127.0.0.1;\n"
      "                      'none' disables the TCP listener)\n"
      "  --socket=PATH       also listen on a Unix-domain socket\n"
      "  --threads=N         service worker threads (default: hardware\n"
      "                      concurrency)\n"
      "  --max-queue=N       admission bound: requests in flight before\n"
      "                      new ones are rejected with an overload\n"
      "                      response (default 128)\n"
      "  --client-credits=N  per-connection admission bound: one\n"
      "                      connection's in-flight requests before IT is\n"
      "                      rejected while others still admit (default\n"
      "                      64 = groverc's pipeline window; 0 disables)\n"
      "  --cache-mb=M        artifact cache byte budget in MiB (default\n"
      "                      256)\n"
      "  --cache-dir=DIR     enable the on-disk artifact cache tier\n"
      "  --policy-dir=DIR    persist policy decisions on disk\n"
      "  --measure-rate=<f>  execute this fraction (0..1] of policy-routed\n"
      "                      requests for real and fold the measured np\n"
      "                      back into the decision store\n"
      "  --measure-queue-depth=N\n"
      "                      run sampled measurements on a background\n"
      "                      queue of this depth instead of on the\n"
      "                      request path; excess samples are dropped\n"
      "                      (default 64; 0 = measure inline)\n"
      "  --prove             run the symbolic race prover on every\n"
      "                      request; a transform whose original was\n"
      "                      race-free but whose transformed IR has a\n"
      "                      provable race is vetoed (original served)\n"
      "  --policy-horizon-ms=N\n"
      "                      decay warm decision confidence with age\n"
      "                      (half-life N ms) and re-measure stale\n"
      "                      contradicted entries (default 0 = off)\n"
      "  --idle-timeout-ms=N close connections idle for N ms (default\n"
      "                      60000; 0 disables)\n"
      "  --health-interval=N log a one-line binary-stats health summary\n"
      "                      every N seconds (default 0 = off)\n"
      "  --version           print the build version and exit\n"
      "  --help              this text\n";
}

}  // namespace

int main(int argc, char** argv) {
  grover::net::ServerConfig serverConfig;
  serverConfig.idleTimeoutMs = 60000;
  grover::service::ServiceConfig serviceConfig;
  // The daemon answers measured requests as fast as unmeasured ones:
  // sampled measurements run on a background queue (local groverc keeps
  // the legacy inline measurement so its output stays synchronous).
  serviceConfig.measureQueueDepth = 64;
  std::size_t cacheMb = 256;
  int healthIntervalS = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--port=", 0) == 0) {
      serverConfig.port = static_cast<std::uint16_t>(grover::parseCountFlag(
          "groverd", "--port", arg.substr(7), UINT16_MAX, /*allowZero=*/true));
    } else if (arg.rfind("--host=", 0) == 0) {
      serverConfig.host = arg.substr(7);
    } else if (arg.rfind("--socket=", 0) == 0) {
      serverConfig.unixPath = arg.substr(9);
    } else if (arg.rfind("--threads=", 0) == 0) {
      serverConfig.workers = static_cast<unsigned>(grover::parseCountFlag(
          "groverd", "--threads", arg.substr(10), UINT_MAX));
      serviceConfig.workers = serverConfig.workers;
    } else if (arg.rfind("--max-queue=", 0) == 0) {
      // The service's own queue bound below is maxAdmitted + 16.
      serverConfig.maxAdmitted = static_cast<std::size_t>(
          grover::parseCountFlag("groverd", "--max-queue", arg.substr(12),
                                 SIZE_MAX - 16));
    } else if (arg.rfind("--client-credits=", 0) == 0) {
      serverConfig.clientCredits = static_cast<std::size_t>(
          grover::parseCountFlag("groverd", "--client-credits", arg.substr(17),
                                 SIZE_MAX, /*allowZero=*/true));
    } else if (arg.rfind("--measure-queue-depth=", 0) == 0) {
      serviceConfig.measureQueueDepth = static_cast<std::size_t>(
          grover::parseCountFlag("groverd", "--measure-queue-depth",
                                 arg.substr(22), SIZE_MAX,
                                 /*allowZero=*/true));
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      // The byte budget is cacheMb << 20, so that must not overflow.
      cacheMb = static_cast<std::size_t>(grover::parseCountFlag(
          "groverd", "--cache-mb", arg.substr(11), SIZE_MAX >> 20));
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      serviceConfig.cache.diskDir = arg.substr(12);
    } else if (arg.rfind("--policy-dir=", 0) == 0) {
      serviceConfig.policyStore.diskDir = arg.substr(13);
    } else if (arg.rfind("--measure-rate=", 0) == 0) {
      const std::string value = arg.substr(15);
      try {
        std::size_t pos = 0;
        serviceConfig.measureRate = std::stod(value, &pos);
        if (pos != value.size() || serviceConfig.measureRate <= 0 ||
            serviceConfig.measureRate > 1) {
          throw std::invalid_argument(value);
        }
      } catch (const std::exception&) {
        std::cerr << "groverd: bad --measure-rate value '" << value
                  << "' (expected a number in (0, 1])\n";
        return 1;
      }
    } else if (arg == "--prove") {
      serverConfig.prove = true;
    } else if (arg.rfind("--policy-horizon-ms=", 0) == 0) {
      serviceConfig.policyDecayHorizonMs =
          grover::parseCountFlag("groverd", "--policy-horizon-ms",
                                 arg.substr(20), UINT64_MAX,
                                 /*allowZero=*/true);
    } else if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
      serverConfig.idleTimeoutMs = static_cast<int>(
          grover::parseCountFlag("groverd", "--idle-timeout-ms",
                                 arg.substr(18), INT_MAX, /*allowZero=*/true));
    } else if (arg.rfind("--health-interval=", 0) == 0) {
      healthIntervalS = static_cast<int>(
          grover::parseCountFlag("groverd", "--health-interval",
                                 arg.substr(18), INT_MAX, /*allowZero=*/true));
    } else if (arg == "--version") {
      std::cout << "groverd " << GROVER_VERSION_STRING << " (protocol v"
                << grover::net::kProtocolVersion << ")\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "groverd: unknown option: " << arg << "\n";
      usage();
      return 2;
    }
  }
  serviceConfig.cache.maxBytes = cacheMb << 20;
  // The admission queue is the backpressure boundary; the service's own
  // submit() bound sits behind it and must never block a worker.
  serviceConfig.maxQueue = serverConfig.maxAdmitted + 16;

  try {
    grover::service::CompileService service(serviceConfig);
    if (serviceConfig.measureRate > 0) {
      const grover::native::NativeEngine& engine =
          grover::native::NativeEngine::shared();
      if (!engine.available()) {
        std::cerr << "groverd: native execution unavailable ("
                  << engine.unavailableReason()
                  << "); sampled measurements use the decoded interpreter\n";
      }
    }
    grover::net::Server server(service, serverConfig, &std::cerr);
    server.bind();

    g_server = &server;
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::cout << "groverd " << GROVER_VERSION_STRING << " (protocol v"
              << grover::net::kProtocolVersion << ") listening on ";
    if (server.port() != 0) {
      std::cout << serverConfig.host << ":" << server.port();
      if (!serverConfig.unixPath.empty()) {
        std::cout << " and " << serverConfig.unixPath;
      }
    } else {
      std::cout << serverConfig.unixPath;
    }
    std::cout << std::endl;  // flushed: scripts wait for this line

    // Periodic health line, driven by the same binary StatsFrame a
    // StatsBinary wire request returns — what a monitor would see.
    std::thread health;
    std::mutex healthMutex;
    std::condition_variable healthCv;
    bool healthStop = false;
    if (healthIntervalS > 0) {
      health = std::thread([&] {
        std::unique_lock lock(healthMutex);
        while (!healthCv.wait_for(lock,
                                  std::chrono::seconds(healthIntervalS),
                                  [&] { return healthStop; })) {
          const grover::net::StatsFrame f = server.statsFrame();
          std::cerr << "groverd: " << grover::net::renderHealthLine(f)
                    << "\n";
        }
      });
    }

    server.run();
    g_server = nullptr;

    if (health.joinable()) {
      {
        std::lock_guard lock(healthMutex);
        healthStop = true;
      }
      healthCv.notify_all();
      health.join();
    }

    const grover::net::StatsCounters s = server.stats();
    const grover::service::ServiceStats svc = service.stats();
    std::cerr << "groverd: served " << s.responsesSent << " responses over "
              << s.connectionsAccepted << " connections ("
              << svc.compiles << " compiles, " << svc.policyHits
              << " policy hits, " << s.rejectedOverload
              << " overload-rejected)\n";
    service.shutdown();
    std::cerr << "groverd: clean shutdown\n";
  } catch (const std::exception& e) {
    std::cerr << "groverd: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
