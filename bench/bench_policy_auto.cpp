// Policy-driven auto-serving (DESIGN.md §10): run the 33 Table IV cases
// (11 apps × 3 cache-only platforms, Bench scale) cold through
// CompileService::compileAuto() — every verdict is checked against the
// estimator-derived Gain/Loss/Similar label — then replay the same 33
// requests warm through a *fresh* service sharing only the policy disk
// directory, where each request compiles just the winning variant and
// skips estimation entirely. Exits non-zero when verdict agreement drops
// below 30/33, the warm phase fails to hit the store, or the cold phase
// does not reuse exactly the 24 estimates derived at kSharedEstimates.
// Results land in BENCH_policy_auto.json.
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "perf/platform.h"
#include "policy/policy_store.h"
#include "service/compile_service.h"

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

int main() {
  using namespace grover;
  using namespace grover::bench;
  namespace fs = std::filesystem;

  std::cout << "=== policy engine: cold decide-and-learn vs warm "
               "serve-from-store (33 Table IV cases) ===\n\n";

  const std::vector<std::string> appIds = fig10Apps();
  const std::vector<perf::PlatformSpec> platforms =
      perf::cacheOnlyPlatforms();

  const fs::path policyDir =
      fs::temp_directory_path() /
      ("grover_bench_policy_" + std::to_string(::getpid()));
  fs::remove_all(policyDir);

  struct Case {
    std::string app;
    std::string platform;
    double np = 0;
    perf::Outcome label = perf::Outcome::Similar;   // estimator-derived
    perf::Outcome verdict = perf::Outcome::Similar; // engine decision
    policy::Variant served = policy::Variant::Original;
    bool agree = false;
  };
  std::vector<Case> cases;

  // --- cold phase: both variants compiled + estimated, decision stored.
  double coldMs = 0;
  // Once a second platform asks for a kernel, one execution prices it on
  // every platform the service has served. The pass runs app-major over
  // SNB, Nehalem, MIC:
  //  - the first app (AMD-SS) reuses nothing: when its Nehalem and MIC
  //    requests price its kernels, no other platform is left to price;
  //  - each later app's Nehalem request is the second platform to ask for
  //    its kernels, so it prices both variants on Nehalem and MIC, and the
  //    app's MIC request reuses 2 (10 × 2);
  //  - NVD-MM-B and -AB also reuse NVD-MM-A's original, which prints
  //    alike, on SNB and Nehalem (2 × 2).
  constexpr std::uint64_t kSharedEstimates = 10 * 2 + 2 * 2;
  std::uint64_t coldEstimatesReused = 0;
  {
    service::ServiceConfig config;
    config.estimateThreads = 0;  // one request at a time: use all cores
    config.policyStore.diskDir = policyDir.string();
    service::CompileService service(config);
    const Clock::time_point start = Clock::now();
    for (const std::string& id : appIds) {
      for (const perf::PlatformSpec& platform : platforms) {
        service::Request request;
        request.appId = id;
        request.platform = platform.name;
        request.scale = apps::Scale::Bench;
        const service::AutoResult r = service.compileAuto(request);
        if (!r.eligible || !r.artifact->ok || r.policyHit) {
          std::cerr << "FATAL: cold request " << id << "/" << platform.name
                    << " not served as a cold policy decision\n";
          return 1;
        }
        Case c;
        c.app = id;
        c.platform = platform.name;
        c.np = r.artifact->normalized;
        c.label = r.artifact->outcome;  // the estimator's Table IV label
        c.verdict = r.decision.predictedOutcome;
        c.served = r.decision.variant;
        c.agree = c.verdict == c.label;
        cases.push_back(c);
      }
    }
    coldMs = msSince(start);
    const service::ServiceStats s = service.stats();
    if (s.policyStores != cases.size()) {
      std::cerr << "FATAL: expected " << cases.size()
                << " decisions stored, got " << s.policyStores << "\n";
      return 1;
    }
    coldEstimatesReused = s.estimatesReused;
    std::cout << "cold memo: " << s.proofsReused << " proofs reused, "
              << s.estimatesReused << " estimates reused\n\n";
    if (s.estimatesReused != kSharedEstimates) {
      std::cerr << "FATAL: the cold phase reused " << s.estimatesReused
                << " estimates, expected " << kSharedEstimates << "\n";
      return 1;
    }
  }

  int agreement = 0;
  for (const Case& c : cases) agreement += c.agree ? 1 : 0;

  std::cout << padRight("benchmark", 12) << padRight("platform", 10)
            << padLeft("np", 8) << padLeft("label", 9)
            << padLeft("verdict", 9) << "  served\n";
  for (const Case& c : cases) {
    std::cout << padRight(c.app, 12) << padRight(c.platform, 10)
              << padLeft(fixed(c.np, 3), 8)
              << padLeft(perf::toString(c.label), 9)
              << padLeft(perf::toString(c.verdict), 9) << "  "
              << policy::toString(c.served)
              << (c.agree ? "" : "   << DISAGREES") << "\n";
  }
  std::cout << "\nverdict agreement with estimator labels: " << agreement
            << "/" << cases.size() << "\n";

  // --- warm phase: fresh service, fresh artifact cache, same policy dir.
  // Every request must hit the persisted decision and build only the
  // winning variant — no estimation at all.
  double warmMs = 0;
  std::uint64_t warmHits = 0;
  {
    service::ServiceConfig config;
    config.policyStore.diskDir = policyDir.string();
    service::CompileService service(config);
    const Clock::time_point start = Clock::now();
    for (const Case& c : cases) {
      service::Request request;
      request.appId = c.app;
      request.platform = c.platform;
      request.scale = apps::Scale::Bench;
      const service::AutoResult r = service.compileAuto(request);
      if (!r.eligible || !r.artifact->ok || !r.policyHit) {
        std::cerr << "FATAL: warm request " << c.app << "/" << c.platform
                  << " missed the policy store\n";
        return 1;
      }
      if (r.decision.variant != c.served || r.servedText().empty()) {
        std::cerr << "FATAL: warm request " << c.app << "/" << c.platform
                  << " served a different variant than the cold decision\n";
        return 1;
      }
      if (r.artifact->hasEstimate) {
        std::cerr << "FATAL: warm request " << c.app << "/" << c.platform
                  << " ran the estimator\n";
        return 1;
      }
    }
    warmMs = msSince(start);
    const service::ServiceStats s = service.stats();
    warmHits = s.policyHits;
    if (s.estimateMs != 0.0 || s.compiles != 0) {
      std::cerr << "FATAL: warm phase ran " << s.compiles
                << " full pipelines and " << s.estimateMs
                << " ms of estimation\n";
      return 1;
    }
  }
  fs::remove_all(policyDir);

  const double ratio = warmMs > 0 ? coldMs / warmMs : 0;
  std::cout << "cold (compile both + estimate + decide): "
            << fixed(coldMs, 1) << " ms\n"
            << "warm (serve winning variant from store): "
            << fixed(warmMs, 1) << " ms  (" << warmHits
            << "/" << cases.size() << " policy hits)\n"
            << "speedup: " << fixed(ratio, 1) << "x\n";

  // --- machine-readable blob.
  std::ostringstream json;
  json << "{\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    json << "    {\"app\": \"" << c.app << "\", \"platform\": \""
         << c.platform << "\", \"np\": " << c.np << ", \"label\": \""
         << perf::toString(c.label) << "\", \"verdict\": \""
         << perf::toString(c.verdict) << "\", \"served\": \""
         << policy::toString(c.served)
         << "\", \"agree\": " << (c.agree ? "true" : "false") << "}"
         << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"agreement\": " << agreement << ",\n"
       << "  \"total_cases\": " << cases.size() << ",\n"
       << "  \"cold_ms\": " << coldMs << ",\n"
       << "  \"warm_ms\": " << warmMs << ",\n"
       << "  \"warm_policy_hits\": " << warmHits << ",\n"
       << "  \"cold_estimates_reused\": " << coldEstimatesReused << ",\n"
       << "  \"speedup\": " << ratio << "\n"
       << "}\n";
  writeBenchJson("policy_auto", json.str());

  if (agreement < 30) {
    std::cerr << "FATAL: verdict agreement " << agreement
              << "/33 is below the required 30\n";
    return 1;
  }
  if (ratio <= 1.0) {
    std::cerr << "FATAL: warm policy serving (" << warmMs
              << " ms) is not faster than cold decide-and-learn (" << coldMs
              << " ms)\n";
    return 1;
  }
  return 0;
}
