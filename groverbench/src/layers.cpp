#include "layers.h"

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "apps/app.h"
#include "clc/lexer.h"
#include "clc/parser.h"
#include "clc/sema.h"
#include "codegen/irgen.h"
#include "daemon.h"
#include "grover/grover_pass.h"
#include "grovercl/compiler.h"
#include "ir/ir_parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "net/batch.h"
#include "net/client.h"
#include "net/wire.h"
#include "passes/pass.h"
#include "perf/estimator.h"
#include "perf/platform.h"
#include "policy/decision_engine.h"
#include "policy/features.h"
#include "policy/policy_store.h"
#include "rt/interpreter.h"
#include "rt/trace.h"
#include "service/artifact_cache.h"
#include "service/compile_service.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "sym/prover.h"
#include "sym/witness_check.h"

namespace groverbench {
namespace {

namespace fs = std::filesystem;
namespace gr = grover;

/// Request ids of replayed spans start here, far above wire request ids.
constexpr std::uint64_t kReplayRequestBase = 1'000'000'000;
/// Repeated warm calls per key (their cost is microseconds).
constexpr int kWarmRepeats = 20;
/// Round trips of the network probe.
constexpr int kProbeRoundTrips = 2000;

/// Times calls into the layers as spans and keeps every duration (in
/// microseconds) per span name.
class Recorder {
 public:
  explicit Recorder(Tracer& tracer) : tracer_(tracer) {}

  /// Add a root span now; close() sets its end.
  int open(const std::string& name, std::uint64_t request) {
    const Clock::time_point now = Clock::now();
    return tracer_.add(name, now, now, -1, request);
  }
  void close(int index) { tracer_.finish(index, Clock::now()); }

  template <typename F>
  auto time(const std::string& name, int parent, std::uint64_t request,
            F&& f) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      record(name, t0, parent, request);
    } else {
      auto result = f();
      record(name, t0, parent, request);
      return result;
    }
  }

  [[nodiscard]] double medianUs(const std::string& name) {
    return median(samples_[name]);
  }
  /// Summed duration of the direct children of span `parent`.
  [[nodiscard]] double childUs(int parent) { return child_us_[parent]; }
  /// Duration of the most recent span of `name`.
  [[nodiscard]] double lastUs(const std::string& name) {
    return samples_[name].back();
  }
  /// A sample derived from other spans (no span of its own).
  void derive(const std::string& name, double us) {
    samples_[name].push_back(us);
  }

 private:
  void record(const std::string& name, Clock::time_point t0, int parent,
              std::uint64_t request) {
    const Clock::time_point t1 = Clock::now();
    tracer_.add(name, t0, t1, parent, request);
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    samples_[name].push_back(us);
    if (parent >= 0) child_us_[parent] += us;
  }

  Tracer& tracer_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<int, double> child_us_;
};

/// compileWithDiags (grovercl/compiler.cpp), one layer per span.
gr::Program frontEnd(Recorder& rec, const std::string& source, int parent,
                     std::uint64_t req) {
  gr::DiagnosticEngine diags;
  gr::Program program;
  program.context = std::make_unique<gr::ir::Context>();
  auto lexer = rec.time("clc.lex", parent, req, [&] {
    return std::make_unique<gr::clc::Lexer>(source, diags);
  });
  auto parser =
      std::make_unique<gr::clc::Parser>(lexer->tokens(), diags);
  auto tu = rec.time("clc.parse", parent, req,
                     [&] { return parser->parse(); });
  auto sema = std::make_unique<gr::clc::Sema>(*program.context, diags);
  const bool typed =
      rec.time("clc.sema", parent, req, [&] { return sema->check(*tu); });
  if (!typed || diags.hasErrors()) {
    throw std::runtime_error("replay: front end rejected a Table I app: " +
                             diags.str());
  }
  program.module =
      std::make_unique<gr::ir::Module>(*program.context, "program");
  rec.time("codegen.irgen", parent, req, [&] {
    gr::codegen::IRGen irgen(*program.module, diags);
    irgen.emit(*tu);
  });
  rec.time("ir.verify", parent, req,
           [&] { gr::ir::verifyModule(*program.module); });
  rec.time("passes.pipeline", parent, req, [&] {
    gr::passes::PassManager pm(/*verifyBetween=*/true);
    gr::passes::addStandardPipeline(pm);
    pm.run(*program.module);
  });
  return program;
}

std::size_t instructionCount(const gr::ir::Function& fn) {
  std::size_t n = 0;
  for (const auto& bb : fn.blocks()) n += bb->size();
  return n;
}

gr::service::Request requestFor(const Key& key) {
  gr::net::BatchEntry entry = gr::net::parseRequestLine(key.line());
  if (!entry.valid) throw std::runtime_error("bad key line " + key.line());
  // The benchmark's daemons run --prove, which forces this on.
  entry.request.options.prove = true;
  return entry.request;
}

/// Counts summed over the replayed keys.
struct Counts {
  double insts = 0, buffers = 0, rtInsts = 0, groups = 0;
  std::size_t proofs = 0, decided = 0;
};

/// Everything the later replay loops need from a key's cold replay.
struct ColdKey {
  gr::service::Request resolved;
  std::uint64_t cacheKey = 0;
  std::uint64_t policyKey = 0;
  std::string originalText, transformedText;
  gr::service::ArtifactPtr artifact;
  double childrenUs = 0;  // summed layer spans of the cold path
};

/// A cold AutoRequest in CompileService's order: compileAuto's feature
/// compile, then compileUncached's two front ends, Grover, print, prove
/// and estimate, then the decision and both disk-tier writes.
ColdKey replayCold(Recorder& rec, std::size_t k,
                   gr::policy::PolicyStore& store,
                   gr::service::ArtifactCache& cache, Counts& counts,
                   const Expected& expected,
                   std::vector<std::string>& problems) {
  const Key& key = allKeys()[k];
  const std::uint64_t req = kReplayRequestBase + k;
  ColdKey out;
  out.resolved = gr::service::CompileService::resolve(requestFor(key));
  const gr::service::Request& r = out.resolved;
  out.cacheKey = gr::service::CompileService::cacheKey(r);
  const gr::apps::Application& app = gr::apps::applicationById(r.appId);
  const gr::perf::PlatformSpec spec = *gr::perf::findPlatform(r.platform);
  const auto instance = [&](int parent) {
    return rec.time("apps.instance", parent, req, [&] {
      return app.makeInstance(gr::apps::Scale::Test);
    });
  };

  const int root = rec.open("replay.cold", req);
  gr::Program featureProgram = frontEnd(rec, r.source, root, req);
  const gr::apps::Instance launch = instance(root);
  gr::policy::KernelFeatures features;
  out.policyKey = rec.time("policy.features", root, req, [&] {
    features = gr::policy::extractFeatures(
        *featureProgram.kernel(r.kernelName), &launch.range);
    gr::Fnv1a tag;
    tag.update(std::string_view(key.line()));
    return gr::policy::featureKey(features, spec.name, tag.digest());
  });

  gr::Program original = frontEnd(rec, r.source, root, req);
  gr::Program transformed = frontEnd(rec, r.source, root, req);
  gr::ir::Function* origKernel = original.kernel(r.kernelName);
  gr::ir::Function* transKernel = transformed.kernel(r.kernelName);
  gr::grv::GroverResult report = rec.time("grover.run", root, req, [&] {
    return gr::grv::runGrover(*transKernel, r.options);
  });
  rec.time("ir.verify", root, req,
           [&] { gr::ir::verifyFunction(*transKernel); });
  for (const auto& b : report.buffers) counts.buffers += b.transformed;
  out.originalText = rec.time("ir.print", root, req, [&] {
    return gr::ir::printModule(*original.module);
  });
  out.transformedText = rec.time("ir.print", root, req, [&] {
    return gr::ir::printModule(*transformed.module);
  });

  const gr::apps::Instance proveLaunch = instance(root);
  const gr::sym::ProveOptions popts =
      gr::sym::proveOptionsForLaunch(proveLaunch.range, proveLaunch.args);
  gr::sym::ProofStatus status[2];
  for (int v = 0; v < 2; ++v) {
    status[v] = rec.time("sym.prove", root, req, [&] {
      return gr::sym::proveRaceFreedom(v == 0 ? *origKernel : *transKernel,
                                       popts)
          .status;
    });
    ++counts.proofs;
    if (status[v] == gr::sym::ProofStatus::Proved ||
        status[v] == gr::sym::ProofStatus::Refuted) {
      ++counts.decided;
    }
  }

  const std::string estimateName =
      spec.kind == gr::perf::PlatformKind::CpuCacheOnly
          ? "perf.estimate_cpu"
          : "perf.estimate_gpu";
  double cycles[2] = {0, 0};
  double estimateUs[2] = {0, 0};
  for (int v = 0; v < 2; ++v) {
    gr::apps::Instance i = instance(root);
    cycles[v] = rec.time(estimateName, root, req, [&] {
      return gr::perf::estimate(spec, v == 0 ? *origKernel : *transKernel,
                                i.range, i.args, i.benchSampleStride,
                                /*threads=*/1)
          .cycles;
    });
    estimateUs[v] = rec.lastUs(estimateName);
  }

  gr::policy::Decision decision = rec.time("policy.decide", root, req, [&] {
    return gr::policy::DecisionEngine().decide(
        features, spec, gr::policy::EstimatePair{cycles[0], cycles[1]});
  });
  const bool vetoed = status[0] != gr::sym::ProofStatus::Refuted &&
                      status[1] == gr::sym::ProofStatus::Refuted;
  if (vetoed) decision.variant = gr::policy::Variant::Original;
  rec.time("policy.store", root, req,
           [&] { store.store(out.policyKey, decision); });

  auto artifact = std::make_shared<gr::service::Artifact>();
  artifact->ok = true;
  artifact->originalText = out.originalText;
  artifact->transformedText = out.transformedText;
  artifact->report = report;
  artifact->hasEstimate = true;
  artifact->cyclesWithLM = cycles[0];
  artifact->cyclesWithoutLM = cycles[1];
  artifact->normalized =
      gr::perf::normalizedPerformance(cycles[0], cycles[1]);
  artifact->outcome = gr::perf::classify(artifact->normalized);
  artifact->proofOriginal = status[0];
  artifact->proofTransformed = status[1];
  artifact->proofVetoed = vetoed;
  rec.time("service.disk_store", root, req,
           [&] { cache.storeToDisk(out.cacheKey, *artifact); });
  out.artifact = artifact;
  rec.close(root);
  out.childrenUs = rec.childUs(root);

  const Variant served = decision.variant == gr::policy::Variant::Transformed
                             ? Variant::WithoutLocal
                             : Variant::WithLocal;
  if (served != expected.at(key.name())) {
    problems.push_back("replay of " + key.name() + " decided " +
                       toString(served));
  }
  counts.insts += static_cast<double>(instructionCount(*origKernel) +
                                      instructionCount(*transKernel));

  // Phase A of each estimate on its own: decode the kernel image, then
  // execute the sampled groups into a GroupTrace, as runTracedLaunch
  // does on one thread.
  const int rtRoot = rec.open("replay.rt", req);
  for (int v = 0; v < 2; ++v) {
    gr::ir::Function& fn = v == 0 ? *origKernel : *transKernel;
    gr::apps::Instance i = app.makeInstance(gr::apps::Scale::Test);
    gr::rt::Launch sampling(fn, i.range, i.args);
    sampling.setGroupSampling(i.benchSampleStride);
    const auto sampled = sampling.sampledGroups();
    std::optional<gr::rt::KernelImage> image;
    rec.time("rt.decode", rtRoot, req,
             [&] { image.emplace(fn, i.range, i.args); });
    gr::rt::GroupExecutor exec(*image);
    gr::rt::GroupTrace trace;
    exec.setTrace(&trace);
    rec.time("rt.execute", rtRoot, req, [&] {
      for (const auto& g : sampled) exec.runGroup(g);
    });
    counts.rtInsts += static_cast<double>(exec.totalCounters().total());
    counts.groups += static_cast<double>(sampled.size());
    // Phases B+C: the estimate minus its phase A.
    rec.derive("perf.model", estimateUs[v] - rec.lastUs("rt.execute"));
  }
  rec.close(rtRoot);
  return out;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"net.hop_us", "us"},
      {"net.codec_us", "us"},
      {"net.rejected", "count"},
      {"service.hit_us", "us"},
      {"service.auto_hit_us", "us"},
      {"service.cold_ms", "ms"},
      {"service.self_ms", "ms"},
      {"service.cache_get_us", "us"},
      {"service.disk_load_us", "us"},
      {"service.disk_store_us", "us"},
      {"service.compiles", "count"},
      {"service.memory_hit_ratio", "ratio"},
      {"service.disk_hit_ratio", "ratio"},
      {"service.stage.frontend_ms", "ms"},
      {"service.stage.grover_ms", "ms"},
      {"service.stage.validate_ms", "ms"},
      {"service.stage.print_ms", "ms"},
      {"service.stage.estimate_ms", "ms"},
      {"service.stage.prove_ms", "ms"},
      {"service.stage.cache_ms", "ms"},
      {"policy.features_us", "us"},
      {"policy.lookup_us", "us"},
      {"policy.disk_lookup_us", "us"},
      {"policy.store_us", "us"},
      {"policy.decide_us", "us"},
      {"policy.hit_ratio", "ratio"},
      {"clc.lex_us", "us"},
      {"clc.parse_us", "us"},
      {"clc.sema_us", "us"},
      {"codegen.irgen_us", "us"},
      {"passes.pipeline_us", "us"},
      {"ir.verify_us", "us"},
      {"ir.print_us", "us"},
      {"ir.parse_us", "us"},
      {"ir.insts", "count"},
      {"apps.instance_us", "us"},
      {"grover.run_us", "us"},
      {"grover.buffers", "count"},
      {"sym.prove_ms", "ms"},
      {"sym.decided_ratio", "ratio"},
      {"rt.decode_us", "us"},
      {"rt.execute_ms", "ms"},
      {"rt.insts", "count"},
      {"perf.estimate_cpu_ms", "ms"},
      {"perf.estimate_gpu_ms", "ms"},
      {"perf.model_ms", "ms"},
      {"perf.groups", "count"},
  };
  return units;
}

LayerReport measureLayers(const Context& ctx, const Phase& traced,
                          Tracer& tracer) {
  LayerReport out;
  std::map<std::string, double> m;
  const std::string dir = ctx.workDir + "/layers";
  fs::remove_all(dir);
  fs::create_directories(dir + "/cache");
  fs::create_directories(dir + "/policy");
  fs::create_directories(dir + "/svc-cache");
  fs::create_directories(dir + "/svc-policy");

  // The network probe daemon starts first, before this process runs any
  // service threads of its own.
  DaemonOptions probeOptions;
  probeOptions.exe = ctx.groverd;
  probeOptions.logPath = dir + "/probe.log";
  Daemon probe(probeOptions);

  Recorder rec(tracer);
  gr::policy::PolicyStore::Config storeConfig;
  storeConfig.diskDir = dir + "/policy";
  gr::policy::PolicyStore store(storeConfig);
  gr::service::ArtifactCache::Config cacheConfig;
  cacheConfig.diskDir = dir + "/cache";
  gr::service::ArtifactCache cache(cacheConfig);

  Counts counts;
  std::vector<ColdKey> cold;
  for (std::size_t k = 0; k < allKeys().size(); ++k) {
    cold.push_back(replayCold(rec, k, store, cache, counts, ctx.expected,
                              out.problems));
  }

  // Warm probes: the memory tiers a warm hit reads.
  for (std::size_t k = 0; k < cold.size(); ++k) {
    const std::uint64_t req = kReplayRequestBase + k;
    const int root = rec.open("replay.warm", req);
    cache.put(cold[k].cacheKey, cold[k].artifact);
    for (int i = 0; i < kWarmRepeats; ++i) {
      const bool found = rec.time("policy.lookup", root, req, [&] {
        return store.lookup(cold[k].policyKey).has_value();
      });
      const bool hit = rec.time("service.cache_get", root, req, [&] {
        return cache.get(cold[k].cacheKey) != nullptr;
      });
      if (!found || !hit) {
        out.problems.push_back("replay: warm tier lost " +
                               allKeys()[k].name());
      }
    }
    rec.close(root);
  }

  // Restart probes: a fresh process's tiers over the directories the
  // cold replay wrote, as restart-disk reads them.
  {
    gr::policy::PolicyStore freshStore(storeConfig);
    gr::service::ArtifactCache freshCache(cacheConfig);
    for (std::size_t k = 0; k < cold.size(); ++k) {
      const std::uint64_t req = kReplayRequestBase + k;
      const int root = rec.open("replay.restart", req);
      const bool loaded = rec.time("service.disk_load", root, req, [&] {
        return freshCache.loadFromDisk(cold[k].cacheKey) != nullptr;
      });
      for (const std::string* text :
           {&cold[k].originalText, &cold[k].transformedText}) {
        gr::ir::Context irContext;
        rec.time("ir.parse", root, req, [&] {
          return gr::ir::parseModule(irContext, *text) != nullptr;
        });
      }
      const bool found = rec.time("policy.disk_lookup", root, req, [&] {
        return freshStore.lookup(cold[k].policyKey).has_value();
      });
      if (!loaded || !found) {
        out.problems.push_back("replay: disk tier lost " +
                               allKeys()[k].name());
      }
      rec.close(root);
    }
  }

  // Entry points of an in-process service configured like the daemon.
  gr::service::ServiceConfig svcConfig;
  svcConfig.workers = 2;
  svcConfig.cache.diskDir = dir + "/svc-cache";
  svcConfig.policyStore.diskDir = dir + "/svc-policy";
  gr::service::CompileService svc(svcConfig);
  std::vector<double> selfMs;
  for (std::size_t k = 0; k < cold.size(); ++k) {
    const Key& key = allKeys()[k];
    const std::uint64_t req = kReplayRequestBase + k;
    const gr::service::Request request = requestFor(key);
    const int root = rec.open("entry", req);
    const gr::service::AutoResult first = rec.time(
        "service.cold", root, req, [&] { return svc.compileAuto(request); });
    selfMs.push_back((rec.lastUs("service.cold") - cold[k].childrenUs) /
                     1000.0);
    const Variant served =
        first.decision.variant == gr::policy::Variant::Transformed
            ? Variant::WithoutLocal
            : Variant::WithLocal;
    if (first.policyHit || served != ctx.expected.at(key.name())) {
      out.problems.push_back("in-process compileAuto of " + key.name() +
                             " served " + toString(served));
    }
    for (int i = 0; i < kWarmRepeats; ++i) {
      const bool policyHit = rec.time("service.auto_hit", root, req, [&] {
        return svc.compileAuto(request).policyHit;
      });
      const bool ok = rec.time("service.hit", root, req, [&] {
        return svc.submit(request).get()->ok;
      });
      if (!policyHit || !ok) {
        out.problems.push_back("in-process warm path missed " + key.name());
      }
    }
    rec.close(root);
  }

  // net.hop_us: the daemon round trip of one warm plain key minus the
  // in-process submit().get() of the same key.
  {
    Rng rng(ctx.seed);
    const Key& key = allKeys()[permutation(allKeys().size(), rng)[0]];
    const gr::service::Request request = requestFor(key);
    gr::net::Client client;
    client.connect(probe.address());
    const std::uint64_t req = kReplayRequestBase + 1'000'000;
    const int root = rec.open("probe.net", req);
    for (int i = 0; i <= kProbeRoundTrips; ++i) {
      const auto roundTrip = [&] {
        client.sendFrame(gr::net::FrameType::Request,
                         static_cast<std::uint64_t>(i + 1), key.line());
        return client.readFrame();
      };
      // The first request compiles the key; only warm trips count.
      const gr::net::Frame reply =
          i == 0 ? roundTrip() : rec.time("probe.wire", root, req, roundTrip);
      gr::net::Status status;
      std::string_view text;
      if (!gr::net::splitStatusPayload(reply.payload, status, text) ||
          !checkReply(Kind::Plain, static_cast<int>(status), text,
                      ctx.expected.at(key.name()))
               .empty()) {
        out.problems.push_back("probe reply failed for " + key.name());
        break;
      }
    }
    for (int i = 0; i < kProbeRoundTrips; ++i) {
      rec.time("probe.submit", root, req,
               [&] { return svc.submit(request).get(); });
    }
    rec.close(root);
    client.close();
    const DaemonCounters c = probe.counters();
    if (c.compiles != 1 || c.rejected != 0) {
      out.problems.push_back("probe daemon compiled " +
                             std::to_string(c.compiles) + " times");
    }
    if (const std::string why = probe.stop(); !why.empty()) {
      out.problems.push_back(why);
    }
    m["net.hop_us"] = rec.medianUs("probe.wire") -
                      rec.medianUs("probe.submit");
    out.notes.push_back("net probe key " + key.name() + ": wire p50 " +
                        jsonNumber(rec.medianUs("probe.wire")) +
                        " us, in-process p50 " +
                        jsonNumber(rec.medianUs("probe.submit")) + " us");
  }

  // net.codec_us: one request and one response through the codec.
  {
    const std::string line = allKeys()[0].line();
    const std::string text =
        "ok, serving without-local-memory (policy hit, predicted np 1.121, "
        "gain, proof proved)";
    for (int i = 0; i < kProbeRoundTrips; ++i) {
      rec.time("net.codec", -1, 0, [&] {
        std::string wire;
        gr::net::appendFrame(wire, gr::net::FrameType::AutoRequest,
                             static_cast<std::uint64_t>(i), line);
        gr::net::appendStatusFrame(wire, gr::net::FrameType::Response,
                                   static_cast<std::uint64_t>(i),
                                   gr::net::Status::Ok, text);
        gr::net::FrameReader reader;
        reader.append(wire.data(), wire.size());
        gr::net::Frame request, response;
        return reader.next(request) == gr::net::FrameReader::Result::Frame &&
               reader.next(response) == gr::net::FrameReader::Result::Frame;
      });
    }
  }

  const DaemonCounters& c = traced.counters;
  const double requests = static_cast<double>(traced.sent);
  const auto perRequest = [&](double ms) { return ratio(ms, requests); };
  m["net.codec_us"] = rec.medianUs("net.codec");
  m["net.rejected"] = c.rejected;
  m["service.hit_us"] = rec.medianUs("service.hit");
  m["service.auto_hit_us"] = rec.medianUs("service.auto_hit");
  m["service.cold_ms"] = rec.medianUs("service.cold") / 1000;
  m["service.self_ms"] = median(selfMs);
  m["service.cache_get_us"] = rec.medianUs("service.cache_get");
  m["service.disk_load_us"] = rec.medianUs("service.disk_load");
  m["service.disk_store_us"] = rec.medianUs("service.disk_store");
  m["service.compiles"] =
      ratio(c.compiles, static_cast<double>(traced.passes));
  m["service.memory_hit_ratio"] =
      ratio(c.memoryHits, c.memoryHits + c.coalesced + c.misses);
  m["service.disk_hit_ratio"] = ratio(c.diskHits, c.misses);
  m["service.stage.frontend_ms"] = perRequest(c.frontendMs);
  m["service.stage.grover_ms"] = perRequest(c.groverMs);
  m["service.stage.validate_ms"] = perRequest(c.validateMs);
  m["service.stage.print_ms"] = perRequest(c.printMs);
  m["service.stage.estimate_ms"] = perRequest(c.estimateMs);
  m["service.stage.prove_ms"] = perRequest(c.proveMs);
  m["service.stage.cache_ms"] = perRequest(c.cacheMs);
  m["policy.features_us"] = rec.medianUs("policy.features");
  m["policy.lookup_us"] = rec.medianUs("policy.lookup");
  m["policy.disk_lookup_us"] = rec.medianUs("policy.disk_lookup");
  m["policy.store_us"] = rec.medianUs("policy.store");
  m["policy.decide_us"] = rec.medianUs("policy.decide");
  m["policy.hit_ratio"] =
      ratio(c.policyHits, c.policyHits + c.policyMisses);
  m["clc.lex_us"] = rec.medianUs("clc.lex");
  m["clc.parse_us"] = rec.medianUs("clc.parse");
  m["clc.sema_us"] = rec.medianUs("clc.sema");
  m["codegen.irgen_us"] = rec.medianUs("codegen.irgen");
  m["passes.pipeline_us"] = rec.medianUs("passes.pipeline");
  m["ir.verify_us"] = rec.medianUs("ir.verify");
  m["ir.print_us"] = rec.medianUs("ir.print");
  m["ir.parse_us"] = rec.medianUs("ir.parse");
  m["ir.insts"] = counts.insts;
  m["apps.instance_us"] = rec.medianUs("apps.instance");
  m["grover.run_us"] = rec.medianUs("grover.run");
  m["grover.buffers"] = counts.buffers;
  m["sym.prove_ms"] = rec.medianUs("sym.prove") / 1000;
  m["sym.decided_ratio"] =
      ratio(static_cast<double>(counts.decided),
            static_cast<double>(counts.proofs));
  m["rt.decode_us"] = rec.medianUs("rt.decode");
  m["rt.execute_ms"] = rec.medianUs("rt.execute") / 1000;
  m["rt.insts"] = counts.rtInsts;
  m["perf.estimate_cpu_ms"] = rec.medianUs("perf.estimate_cpu") / 1000;
  m["perf.estimate_gpu_ms"] = rec.medianUs("perf.estimate_gpu") / 1000;
  m["perf.model_ms"] = rec.medianUs("perf.model") / 1000;
  m["perf.groups"] = counts.groups;

  for (const auto& [name, unit] : layerMetricUnits()) {
    const auto it = m.find(name);
    if (it == m.end()) throw std::logic_error("layer metric missing: " + name);
    out.metrics.emplace_back(name, it->second);
  }
  if (out.problems.empty()) fs::remove_all(dir);
  return out;
}

}  // namespace groverbench
