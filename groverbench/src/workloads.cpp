#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "daemon.h"
#include "net/client.h"
#include "net/wire.h"

namespace groverbench {
namespace {

namespace fs = std::filesystem;
using grover::net::Client;
using grover::net::FrameType;

constexpr std::size_t kMaxFailuresKept = 5;
/// Set-ups per run for the workloads whose set-up is a whole cold pass;
/// setup_s reports their median.
constexpr int kSetupRepeats = 3;

std::atomic<std::uint64_t> g_next_request_id{1};

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

void noteFailure(Phase& phase, std::string why) {
  ++phase.failed;
  if (phase.failures.size() < kMaxFailuresKept) {
    phase.failures.push_back(std::move(why));
  }
}

/// One closed-loop round trip: send, wait for the reply, check it.
void roundTrip(Client& client, const Req& req, const Expected& expected,
               Phase& phase, std::vector<Span>* spans,
               Clock::time_point origin) {
  const Key& key = allKeys()[req.key];
  const std::uint64_t id = g_next_request_id.fetch_add(1);
  ++phase.sent;
  ++(req.kind == Kind::Auto ? phase.autoSent : phase.plainSent);
  const Clock::time_point start = Clock::now();
  client.sendFrame(
      req.kind == Kind::Auto ? FrameType::AutoRequest : FrameType::Request,
      id, key.line());
  const grover::net::Frame reply = client.readFrame();
  const Clock::time_point end = Clock::now();
  phase.latencyMs.push_back(
      std::chrono::duration<double, std::milli>(end - start).count());
  if (spans != nullptr) {
    const auto us = [origin](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    spans->push_back({req.kind == Kind::Auto ? "wire.auto" : "wire.plain",
                      us(start), us(end), -1, id});
  }
  grover::net::Status status;
  std::string_view text;
  std::string why;
  if (reply.type != FrameType::Response || reply.id != id) {
    why = "unexpected reply frame";
  } else if (!grover::net::splitStatusPayload(reply.payload, status, text)) {
    why = "malformed reply payload";
  } else {
    why = checkReply(req.kind, static_cast<int>(status), text,
                     expected.at(key.name()));
  }
  if (why.empty()) {
    ++phase.succeeded;
  } else {
    noteFailure(phase, key.line() + ": " + why);
  }
}

/// Serve `seq` over the given connections. Each connection is strictly
/// serial (one request outstanding); with several, they pull the next
/// request from the shared sequence.
void serve(const std::vector<Client*>& conns, const std::vector<Req>& seq,
           const Context& ctx, Phase& phase, Tracer* tracer) {
  const Clock::time_point origin =
      tracer != nullptr ? tracer->origin() : Clock::now();
  std::vector<Phase> parts(conns.size());
  std::vector<std::vector<Span>> spans(conns.size());
  std::vector<std::exception_ptr> errors(conns.size());
  std::atomic<std::size_t> next{0};
  const auto lane = [&](std::size_t c) {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < seq.size();) {
        roundTrip(*conns[c], seq[i], ctx.expected, parts[c],
                  tracer != nullptr ? &spans[c] : nullptr, origin);
      }
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  if (conns.size() == 1) {
    lane(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back(lane, c);
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t c = 0; c < conns.size(); ++c) {
    phase.merge(parts[c]);
    if (tracer != nullptr) tracer->append(spans[c]);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Every key once, in the fixed key order.
std::vector<Req> everyKey(Kind kind) {
  std::vector<Req> out;
  for (std::size_t k = 0; k < allKeys().size(); ++k) out.push_back({k, kind});
  return out;
}

/// Record an invariant violation when `actual != want`.
void expectCount(std::vector<std::string>& problems, const std::string& where,
                 const char* what, double actual, double want) {
  if (actual != want) {
    problems.push_back(where + ": " + what + " " +
                       std::to_string(static_cast<long long>(actual)) +
                       ", expected " +
                       std::to_string(static_cast<long long>(want)));
  }
}

void stopDaemon(Daemon& d, Phase& phase) {
  const std::string why = d.stop();
  if (why.empty()) {
    ++phase.cleanShutdowns;
  } else {
    phase.problems.push_back(why);
  }
}

struct Dirs {
  std::string root, cache, policy;
};

Dirs makeDirs(const Context& ctx, const std::string& name) {
  Dirs d{ctx.workDir + "/" + name, "", ""};
  d.cache = d.root + "/cache";
  d.policy = d.root + "/policy";
  fs::remove_all(d.root);
  fs::create_directories(d.cache);
  fs::create_directories(d.policy);
  return d;
}

std::unique_ptr<Daemon> startDaemon(const Context& ctx, const std::string& log,
                                    const Dirs* dirs, Phase& phase) {
  DaemonOptions o;
  o.exe = ctx.groverd;
  o.logPath = log;
  if (dirs != nullptr) {
    o.cacheDir = dirs->cache;
    o.policyDir = dirs->policy;
  }
  auto d = std::make_unique<Daemon>(o);
  ++phase.daemons;
  return d;
}

/// Connect every client to `d`; returns them as serve()'s connections.
std::vector<Client*> connectAll(std::vector<Client>& clients,
                                const Daemon& d) {
  std::vector<Client*> conns;
  for (Client& c : clients) {
    c.connect(d.address());
    conns.push_back(&c);
  }
  return conns;
}

/// Measure per-pass daemon time, CPU and peak RSS around `body`.
template <typename Body>
void measuredPass(Daemon& d, Phase& phase, Body body) {
  const double cpu0 = d.cpuMs();
  body();
  phase.daemonCpuMs += d.cpuMs() - cpu0;
  phase.peakRssKb = std::max(phase.peakRssKb, d.peakRssKb());
}

/// While alive, pins the calling thread, and so every process it spawns,
/// to the last CPU it may run on. The serial workloads measure this way:
/// their client and daemon threads only ever run one at a time, and on
/// one CPU each hand-off is a local context switch instead of a wake-up
/// of another, possibly halted, vCPU that host steal stretches
/// (README.md, noise findings).
class SingleCpu {
 public:
  SingleCpu() {
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpu_ = c;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
  }
  ~SingleCpu() { ::sched_setaffinity(0, sizeof(saved_), &saved_); }
  SingleCpu(const SingleCpu&) = delete;
  SingleCpu& operator=(const SingleCpu&) = delete;

  [[nodiscard]] int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_;
  int cpu_ = 0;
};

/// Run `phase(seconds, tracer)` once, or, for a traced run, as an
/// untraced half followed by a traced half.
template <typename PhaseFn>
void runPhases(WorkloadResult& r, double secs, Tracer* tracer,
               PhaseFn phase) {
  if (tracer == nullptr) {
    r.untraced = phase(secs, nullptr);
    return;
  }
  r.untraced = phase(secs / 2, nullptr);
  r.traced = phase(secs / 2, tracer);
  r.hasTraced = true;
}

/// Spawn-to-listening times of the per-pass daemons of both phases.
std::vector<double> passStarts(const WorkloadResult& r) {
  std::vector<double> starts = r.untraced.daemonStartSeconds;
  starts.insert(starts.end(), r.traced.daemonStartSeconds.begin(),
                r.traced.daemonStartSeconds.end());
  return starts;
}

/// One per-pass workload: what each pass sends and what the fresh
/// daemon's Stats frame must show afterwards.
struct PassSpec {
  const char* name;
  std::size_t connections;
  std::vector<Req> (*sequence)(Rng&);
  double compiles, diskHits, policyHits, policyMisses;
};

constexpr PassSpec kColdDecide{"cold-decide", 2, &coldPass, 66, 0, 0, 66};
constexpr PassSpec kRestartDisk{"restart-disk", 1, &restartPass, 0, 66, 66, 0};

/// Whole passes until `secs` have passed: each starts a daemon on
/// `shared` directories, or on fresh empty ones when `shared` is null,
/// serves one sequence and stops the daemon.
Phase passPhase(const Context& ctx, const PassSpec& spec, const Dirs* shared,
                Rng& rng, double secs, Tracer* tracer, std::size_t& serial) {
  Phase phase;
  const Clock::time_point t0 = Clock::now();
  do {
    const std::string name = std::string(spec.name) + "-" +
                             std::to_string(serial++);
    const Dirs dirs = shared != nullptr ? *shared : makeDirs(ctx, name);
    auto d = startDaemon(ctx, ctx.workDir + "/" + name + ".log", &dirs,
                         phase);
    phase.daemonStartSeconds.push_back(d->startSeconds());
    measuredPass(*d, phase, [&] {
      std::vector<Client> clients(spec.connections);
      serve(connectAll(clients, *d), spec.sequence(rng), ctx, phase, tracer);
    });
    const DaemonCounters c = d->counters();
    const std::string where = name + " pass";
    expectCount(phase.problems, where, "compiles", c.compiles, spec.compiles);
    expectCount(phase.problems, where, "disk hits", c.diskHits,
                spec.diskHits);
    expectCount(phase.problems, where, "policy hits", c.policyHits,
                spec.policyHits);
    expectCount(phase.problems, where, "policy misses", c.policyMisses,
                spec.policyMisses);
    expectCount(phase.problems, where, "rejections", c.rejected, 0);
    phase.counters += c;
    stopDaemon(*d, phase);
    if (shared == nullptr) fs::remove_all(dirs.root);
    ++phase.passes;
  } while (Clock::now() - t0 < std::chrono::duration<double>(secs));
  phase.wallSeconds = seconds(Clock::now() - t0);
  return phase;
}

/// Set-up shared by warm-serve and restart-disk: start a daemon and
/// send it every key, once per kind, in the fixed key order.
std::unique_ptr<Daemon> startPrimed(const Context& ctx,
                                    const std::string& log, const Dirs* dirs,
                                    const std::vector<Kind>& kinds,
                                    std::size_t connections, Phase& setup) {
  auto d = startDaemon(ctx, log, dirs, setup);
  std::vector<Client> clients(connections);
  const std::vector<Client*> conns = connectAll(clients, *d);
  for (const Kind kind : kinds) {
    serve(conns, everyKey(kind), ctx, setup, nullptr);
  }
  return d;
}

// --- cold-decide ------------------------------------------------------------

WorkloadResult coldDecide(const Context& ctx, double secs, Tracer* tracer) {
  WorkloadResult r;
  r.tailPercentile = 90;
  Rng rng(ctx.seed);
  std::size_t serial = 0;
  runPhases(r, secs, tracer, [&](double s, Tracer* t) {
    return passPhase(ctx, kColdDecide, nullptr, rng, s, t, serial);
  });
  const std::vector<double> starts = passStarts(r);
  r.setupSeconds = median(starts);
  r.setupNote = "median daemon start of " + std::to_string(starts.size()) +
                " passes";
  return r;
}

// --- warm-serve -------------------------------------------------------------

Phase warmPhase(const Context& ctx, Daemon& d, Rng& rng, double secs,
                Tracer* tracer) {
  Phase phase;
  Client client;
  client.connect(d.address());
  const DaemonCounters before = d.counters();
  const Clock::time_point t0 = Clock::now();
  measuredPass(d, phase, [&] {
    do {
      serve({&client}, warmCycle(rng), ctx, phase, tracer);
      ++phase.passes;
    } while (Clock::now() - t0 < std::chrono::duration<double>(secs));
  });
  phase.wallSeconds = seconds(Clock::now() - t0);
  const DaemonCounters c = d.counters() - before;
  const std::string where = "warm-serve phase";
  expectCount(phase.problems, where, "compiles", c.compiles, 0);
  expectCount(phase.problems, where, "cache misses", c.misses, 0);
  expectCount(phase.problems, where, "disk hits", c.diskHits, 0);
  expectCount(phase.problems, where, "policy misses", c.policyMisses, 0);
  expectCount(phase.problems, where, "policy hits", c.policyHits,
              static_cast<double>(phase.autoSent));
  expectCount(phase.problems, where, "memory hits", c.memoryHits,
              static_cast<double>(phase.plainSent));
  expectCount(phase.problems, where, "rejections", c.rejected, 0);
  phase.counters = c;
  return phase;
}

WorkloadResult warmServe(const Context& ctx, double secs, Tracer* tracer) {
  WorkloadResult r;
  r.tailPercentile = 99;
  Rng rng(ctx.seed);
  // Set-up: start a daemon and prime it with every key, first as
  // AutoRequest, then as Request. Repeated; the last daemon serves. One
  // connection: with two, which cold compiles overlap varies from run to
  // run, and so does the daemon's peak RSS (daemon_rss_mb).
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (daemon != nullptr) stopDaemon(*daemon, r.setup);
    const Clock::time_point t0 = Clock::now();
    daemon = startPrimed(ctx, ctx.workDir + "/warm-" + std::to_string(i) +
                                  ".log",
                         nullptr, {Kind::Auto, Kind::Plain}, 1, r.setup);
    setups.push_back(seconds(Clock::now() - t0));
  }
  r.setupSeconds = median(setups);
  r.setupNote = "median of " + std::to_string(setups.size()) +
                " daemon starts with priming";
  {
    const SingleCpu pinned;
    daemon->pinTo(pinned.cpu());
    runPhases(r, secs, tracer, [&](double s, Tracer* t) {
      return warmPhase(ctx, *daemon, rng, s, t);
    });
  }
  stopDaemon(*daemon, r.setup);
  return r;
}

// --- restart-disk -----------------------------------------------------------

WorkloadResult restartDisk(const Context& ctx, double secs, Tracer* tracer) {
  WorkloadResult r;
  r.tailPercentile = 99;
  Rng rng(ctx.seed);
  // Set-up: a daemon fills both disk tiers with every key's decision and
  // artifact, then exits. Repeated into fresh directories; the passes
  // read the last fill.
  std::vector<double> fills;
  Dirs dirs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!dirs.root.empty()) fs::remove_all(dirs.root);
    const std::string name = "restart-fill-" + std::to_string(i);
    dirs = makeDirs(ctx, name);
    const Clock::time_point t0 = Clock::now();
    auto d = startPrimed(ctx, ctx.workDir + "/" + name + ".log", &dirs,
                         {Kind::Auto}, 2, r.setup);
    expectCount(r.setup.problems, name, "compiles", d->counters().compiles,
                66);
    stopDaemon(*d, r.setup);
    fills.push_back(seconds(Clock::now() - t0));
  }
  std::size_t serial = 0;
  {
    const SingleCpu pinned;  // inherited by every pass's daemon
    runPhases(r, secs, tracer, [&](double s, Tracer* t) {
      return passPhase(ctx, kRestartDisk, &dirs, rng, s, t, serial);
    });
  }
  const std::vector<double> starts = passStarts(r);
  r.setupSeconds = median(fills) + median(starts);
  r.setupNote = "median of " + std::to_string(fills.size()) +
                " disk fills + median daemon start of " +
                std::to_string(starts.size()) + " passes";
  return r;
}

}  // namespace

int Tracer::add(std::string name, Clock::time_point start,
                Clock::time_point end, int parent, std::uint64_t request) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  spans_.push_back({std::move(name), us(start), us(end), parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::finish(int index, Clock::time_point end) {
  spans_[static_cast<std::size_t>(index)].endUs =
      std::chrono::duration<double, std::micro>(end - origin_).count();
}

void Tracer::append(const std::vector<Span>& spans) {
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_us\":" << jsonNumber(s.startUs)
        << ",\"end_us\":" << jsonNumber(s.endUs) << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

void Phase::merge(const Phase& o) {
  latencyMs.insert(latencyMs.end(), o.latencyMs.begin(), o.latencyMs.end());
  sent += o.sent;
  succeeded += o.succeeded;
  failed += o.failed;
  autoSent += o.autoSent;
  plainSent += o.plainSent;
  for (const std::string& f : o.failures) {
    if (failures.size() < kMaxFailuresKept) failures.push_back(f);
  }
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"cold-decide", "warm-serve",
                                                 "restart-disk"};
  return names;
}

WorkloadResult runWorkload(const std::string& name, const Context& ctx,
                           double secs, Tracer* tracer) {
  if (name == "cold-decide") return coldDecide(ctx, secs, tracer);
  if (name == "warm-serve") return warmServe(ctx, secs, tracer);
  if (name == "restart-disk") return restartDisk(ctx, secs, tracer);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace groverbench
