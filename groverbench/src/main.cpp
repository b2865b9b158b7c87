// groverbench — the groverd benchmark program.
//
//   groverbench --workload=<cold-decide|warm-serve|restart-disk>
//               --seed=N --seconds=S --trace=<0|1>
//               --groverd=PATH --expected=PATH --work-dir=DIR
//
// Runs one workload against real groverd processes and prints a
// human-readable report followed, as the last line, by one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace=0 the
// metrics are the six end-to-end metrics; with --trace=1 the run
// measures an untraced and a traced half, replays the layers in-process,
// and the metrics are the per-layer ones. Exits 1 when any reply,
// invariant or daemon shutdown is wrong (README.md).
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core.h"
#include "layers.h"
#include "support/version.h"
#include "workloads.h"

namespace groverbench {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string groverd, expected, workDir;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "groverbench: " << why
            << "\nusage: groverbench --workload=<cold-decide|warm-serve|"
               "restart-disk> --seed=N --seconds=S --trace=<0|1> "
               "--groverd=PATH --expected=PATH --work-dir=DIR\n";
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options o;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage("bad argument '" + arg + "'");
    }
    const std::string flag = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    try {
      std::size_t pos = 0;
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, &pos);
        haveSeed = pos == value.size();
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value, &pos);
        haveSeconds = pos == value.size() && o.seconds > 0;
      } else if (flag == "--trace") {
        o.trace = value == "1";
        haveTrace = value == "0" || value == "1";
      } else if (flag == "--groverd") {
        o.groverd = value;
      } else if (flag == "--expected") {
        o.expected = value;
      } else if (flag == "--work-dir") {
        o.workDir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag);
    }
  }
  bool known = false;
  for (const std::string& n : workloadNames()) known |= n == o.workload;
  if (!known) usage("unknown workload '" + o.workload + "'");
  if (!haveSeed || !haveSeconds || !haveTrace) {
    usage("--seed, --seconds and --trace need valid values");
  }
  if (o.groverd.empty() || o.expected.empty() || o.workDir.empty()) {
    usage("--groverd, --expected and --work-dir are required");
  }
  return o;
}

struct HostSample {
  HostCpu cpu;
  double load1 = 0;
};

HostSample sampleHost() {
  HostSample h;
  if (const auto c = parseHostCpu(readFile("/proc/stat"))) h.cpu = *c;
  if (const auto l = parseLoadAvg1(readFile("/proc/loadavg"))) h.load1 = *l;
  return h;
}

struct EndToEnd {
  double p50Ms = 0;
  Tail tail;
  double throughputRps = 0;
  double cpuMsPerReq = 0;
  double rssMb = 0;
};

EndToEnd endToEnd(const Phase& p, double wantedTail) {
  EndToEnd e;
  e.p50Ms = median(p.latencyMs);
  e.tail = tailLatency(p.latencyMs, wantedTail);
  const double done = static_cast<double>(p.succeeded);
  e.throughputRps = p.wallSeconds > 0 ? done / p.wallSeconds : 0;
  e.cpuMsPerReq = done > 0 ? p.daemonCpuMs / done : 0;
  e.rssMb = static_cast<double>(p.peakRssKb) / 1024.0;
  return e;
}

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

void printEndToEnd(const std::string& label, const EndToEnd& e,
                   const WorkloadResult& r) {
  std::cout << label << "\n";
  std::cout << "  p50_ms          " << fmt(e.p50Ms, 4) << " ms\n";
  std::cout << "  tail_ms         " << fmt(e.tail.value, 4) << " ms (p"
            << fmt(e.tail.percentile, 0) << " of " << e.tail.samples
            << " samples, " << e.tail.beyond << " beyond)\n";
  std::cout << "  throughput_rps  " << fmt(e.throughputRps, 2) << " 1/s\n";
  std::cout << "  cpu_ms_per_req  " << fmt(e.cpuMsPerReq, 4) << " ms\n";
  std::cout << "  daemon_rss_mb   " << fmt(e.rssMb, 2) << " MB\n";
  std::cout << "  setup_s         " << fmt(r.setupSeconds, 4) << " s ("
            << r.setupNote << ")\n";
}

/// Per-pass Stats-frame invariants as the report prints them.
void printInvariants(const std::string& label, const Phase& p) {
  const double passes = static_cast<double>(std::max<std::size_t>(1, p.passes));
  const DaemonCounters& c = p.counters;
  std::cout << label << ": " << p.passes << " pass(es); per pass: compiles "
            << fmt(c.compiles / passes, 1) << ", disk hits "
            << fmt(c.diskHits / passes, 1) << ", policy hits "
            << fmt(c.policyHits / passes, 1) << ", rejections "
            << fmt(c.rejected / passes, 1) << " -- "
            << (p.problems.empty() ? "ok" : "VIOLATED") << "\n";
}

int run(const Options& o) {
  Context ctx;
  ctx.groverd = o.groverd;
  ctx.workDir = o.workDir + "/run-" + std::to_string(::getpid());
  ctx.seed = o.seed;
  ctx.expected = parseExpected(readFile(o.expected));
  for (const Key& k : allKeys()) {
    if (ctx.expected.count(k.name()) == 0) {
      throw std::runtime_error("expected file lacks " + k.name());
    }
  }
  fs::remove_all(ctx.workDir);
  fs::create_directories(ctx.workDir);

  const HostSample before = sampleHost();
  Tracer tracer(Clock::now());
  const WorkloadResult r =
      runWorkload(o.workload, ctx, o.seconds, o.trace ? &tracer : nullptr);
  LayerReport layers;
  if (o.trace) layers = measureLayers(ctx, r.traced, tracer);
  const HostSample after = sampleHost();

  std::cout << "groverbench: workload " << o.workload << ", seed " << o.seed
            << ", " << fmt(o.seconds, 1) << " s, trace " << o.trace << "\n";
  std::cout << "record: nproc " << ::sysconf(_SC_NPROCESSORS_ONLN)
            << ", build " << GROVERBENCH_BUILD_TYPE << ", git "
            << GROVER_VERSION_STRING << ", compiler " << GROVERBENCH_COMPILER
            << ", seed " << o.seed << "\n";
  const double cpuTicks =
      static_cast<double>(after.cpu.total - before.cpu.total);
  const double stealTicks =
      static_cast<double>(after.cpu.steal - before.cpu.steal);
  std::cout << "host: steal " << fmt(cpuTicks > 0 ? 100 * stealTicks / cpuTicks : 0, 2)
            << "% of CPU time over the run, load average (1 min) "
            << fmt(before.load1, 2) << " -> " << fmt(after.load1, 2) << "\n";

  std::vector<const Phase*> measured = {&r.untraced};
  if (r.hasTraced) measured.push_back(&r.traced);
  std::uint64_t sent = 0, succeeded = 0, failed = 0;
  std::size_t daemons = r.setup.daemons, clean = r.setup.cleanShutdowns;
  std::vector<std::string> problems = r.setup.problems;
  for (const std::string& f : r.setup.failures) {
    problems.push_back("set-up request failed: " + f);
  }
  for (const Phase* p : measured) {
    sent += p->sent;
    succeeded += p->succeeded;
    failed += p->failed;
    daemons += p->daemons;
    clean += p->cleanShutdowns;
    problems.insert(problems.end(), p->problems.begin(), p->problems.end());
    for (const std::string& f : p->failures) {
      problems.push_back("request failed: " + f);
    }
  }
  problems.insert(problems.end(), layers.problems.begin(),
                  layers.problems.end());
  std::cout << "requests: sent " << sent << ", succeeded " << succeeded
            << ", failed " << failed << "\n";

  const EndToEnd plain = endToEnd(r.untraced, r.tailPercentile);
  if (plain.tail.percentile == 0) {
    problems.push_back("too few samples for any tail percentile");
  }
  printEndToEnd(r.hasTraced ? "end to end (untraced half):" : "end to end:",
                plain, r);
  printInvariants("invariants", r.untraced);
  if (r.hasTraced) {
    const EndToEnd traced = endToEnd(r.traced, r.tailPercentile);
    printEndToEnd("end to end (traced half):", traced, r);
    printInvariants("invariants (traced half)", r.traced);
    std::cout << "tracing overhead: p50 "
              << fmt((traced.p50Ms - plain.p50Ms) * 1000, 2) << " us, tail "
              << fmt((traced.tail.value - plain.tail.value) * 1000, 2)
              << " us, throughput "
              << fmt(traced.throughputRps - plain.throughputRps, 2)
              << " 1/s (traced minus untraced)\n";
    std::cout << "per layer:\n";
    for (const auto& [name, value] : layers.metrics) {
      std::cout << "  " << name << " " << jsonNumber(value) << "\n";
    }
    for (const std::string& n : layers.notes) std::cout << "  " << n << "\n";
    const std::string tracePath = o.workDir + "/trace-" + o.workload +
                                  "-seed" + std::to_string(o.seed) + ".jsonl";
    tracer.write(tracePath);
    std::cout << "spans: " << tracer.spans().size() << " written to "
              << tracePath << "\n";
  }
  std::cout << "daemons: " << daemons << " started, " << clean
            << " clean shutdowns\n";
  for (const std::string& p : problems) std::cout << "FAIL: " << p << "\n";

  const bool correct = failed == 0 && problems.empty() && clean == daemons;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << sent << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  const auto metric = [&](const std::string& name, double value,
                          const std::string& unit) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << jsonNumber(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (o.trace) {
    const auto& units = layerMetricUnits();
    for (std::size_t i = 0; i < layers.metrics.size(); ++i) {
      metric(layers.metrics[i].first, layers.metrics[i].second,
             units[i].second);
    }
  } else {
    metric("p50_ms", plain.p50Ms, "ms");
    metric("tail_ms", plain.tail.value, "ms");
    metric("throughput_rps", plain.throughputRps, "1/s");
    metric("cpu_ms_per_req", plain.cpuMsPerReq, "ms");
    metric("daemon_rss_mb", plain.rssMb, "MB");
    metric("setup_s", r.setupSeconds, "s");
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  if (correct) fs::remove_all(ctx.workDir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace groverbench

int main(int argc, char** argv) {
  const groverbench::Options options = groverbench::parseOptions(argc, argv);
  try {
    return groverbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "groverbench: error: " << e.what() << "\n";
    return 1;
  }
}
