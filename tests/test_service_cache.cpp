// Cache semantics of the compilation service: LRU byte budget, negative
// caching of compile failures, the on-disk tier (hit, corruption
// fallback, the store-time parse check, a restarted service answering
// auto requests from disk), bit-identity of cached estimates with the
// uncached Harness path, the proof and estimate memos of cold compiles,
// which served platforms one estimate's execution prices, and the
// memory-only answers groverd's event loop gives.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "grovercl/harness.h"
#include "perf/platform.h"
#include "service/compile_service.h"
#include "support/diagnostics.h"
#include "support/hash.h"

namespace grover::service {
namespace {

namespace fs = std::filesystem;

ArtifactPtr makeArtifact(std::size_t textBytes) {
  auto a = std::make_shared<Artifact>();
  a->ok = true;
  a->transformedText.assign(textBytes, 'x');
  return a;
}

std::string freshDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("grover_svc_test_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
}

/// Every artifact field a memo or the disk tier could change, compared
/// exactly.
void expectSameArtifact(const Artifact& a, const Artifact& b,
                        const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.originalText, b.originalText) << what;
  EXPECT_EQ(a.transformedText, b.transformedText) << what;
  EXPECT_EQ(a.hasEstimate, b.hasEstimate) << what;
  EXPECT_EQ(a.cyclesWithLM, b.cyclesWithLM) << what;
  EXPECT_EQ(a.cyclesWithoutLM, b.cyclesWithoutLM) << what;
  EXPECT_EQ(a.normalized, b.normalized) << what;
  EXPECT_EQ(a.outcome, b.outcome) << what;
  EXPECT_EQ(a.proofOriginal, b.proofOriginal) << what;
  EXPECT_EQ(a.proofTransformed, b.proofTransformed) << what;
  EXPECT_EQ(a.proofNote, b.proofNote) << what;
  EXPECT_EQ(a.proofVetoed, b.proofVetoed) << what;
  EXPECT_EQ(a.hasFeatures, b.hasFeatures) << what;
  EXPECT_EQ(a.features.str(), b.features.str()) << what;
  EXPECT_EQ(a.policyKey, b.policyKey) << what;
}

Request estimateRequest(const std::string& app, const std::string& platform,
                        bool prove = false) {
  Request req;
  req.appId = app;
  req.platform = platform;
  req.scale = apps::Scale::Test;
  req.options.prove = prove;
  return req;
}

/// Every count of ServiceStats (stage times and the queue gauge left out),
/// so two snapshots compare field by field.
std::vector<std::uint64_t> counts(const ServiceStats& s) {
  return {s.requests,          s.memoryHits,
          s.negativeHits,      s.coalesced,
          s.misses,            s.diskHits,
          s.compiles,          s.evictions,
          s.diskLoadFailures,  s.policyDiskLoadFailures,
          s.diskStores,        s.entries,
          s.bytesInUse,        s.cancelled,
          s.policyHits,        s.policyMisses,
          s.policyStores,      s.policyFlips,
          s.policyMismatches,  s.featureKeysReused,
          s.measurements,      s.nativeMeasurements,
          s.policyRefreshes,   s.measurementsDropped,
          s.proofsRun,         s.proofsProved,
          s.proofsRefuted,     s.proofsUnknown,
          s.proofVetoes,       s.proofsReused,
          s.estimatesReused,   s.staleRemeasures};
}

/// after - before, count by count.
std::vector<std::int64_t> countDeltas(const ServiceStats& before,
                                      const ServiceStats& after) {
  const std::vector<std::uint64_t> b = counts(before);
  const std::vector<std::uint64_t> a = counts(after);
  std::vector<std::int64_t> d(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    d[i] = static_cast<std::int64_t>(a[i]) - static_cast<std::int64_t>(b[i]);
  }
  return d;
}

/// The decision fields a served answer reports.
void expectSameDecision(const policy::Decision& a, const policy::Decision& b,
                        const std::string& what) {
  EXPECT_EQ(a.variant, b.variant) << what;
  EXPECT_EQ(a.predictedNp, b.predictedNp) << what;
  EXPECT_EQ(a.predictedOutcome, b.predictedOutcome) << what;
  EXPECT_EQ(a.proof, b.proof) << what;
  EXPECT_EQ(a.confidence, b.confidence) << what;
  EXPECT_EQ(a.source, b.source) << what;
}

std::uint64_t nowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

TEST(ArtifactCacheLru, EvictionRespectsByteBudget) {
  // Budget sized so two entries fit and a third does not.
  const std::size_t entryBytes = makeArtifact(800)->byteSize();
  ArtifactCache::Config config;
  config.shards = 1;
  config.maxBytes = 2 * entryBytes + entryBytes / 2;
  ArtifactCache cache(config);

  cache.put(1, makeArtifact(800));
  cache.put(2, makeArtifact(800));
  ASSERT_NE(cache.get(1), nullptr);
  ASSERT_NE(cache.get(2), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Third entry overflows the budget; key 1 was touched before key 2, so
  // key 1 is the LRU victim.
  cache.put(3, makeArtifact(800));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_NE(cache.get(2), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  const ArtifactCache::Stats s1 = cache.stats();
  EXPECT_EQ(s1.evictions, 1u);
  EXPECT_LE(s1.bytesInUse, config.maxBytes);

  // Recency is respected: touch 2, insert 4 → 3 is evicted, 2 survives.
  ASSERT_NE(cache.get(2), nullptr);
  cache.put(4, makeArtifact(800));
  EXPECT_NE(cache.get(2), nullptr);
  EXPECT_EQ(cache.get(3), nullptr);
  EXPECT_NE(cache.get(4), nullptr);
  EXPECT_LE(cache.stats().bytesInUse, config.maxBytes);
}

TEST(ArtifactCacheLru, OversizedArtifactIsNotRetained) {
  ArtifactCache::Config config;
  config.shards = 1;
  config.maxBytes = 1000;
  ArtifactCache cache(config);
  cache.put(7, makeArtifact(5000));
  EXPECT_EQ(cache.get(7), nullptr);
  EXPECT_LE(cache.stats().bytesInUse, config.maxBytes);
}

TEST(ServiceNegativeCache, CompileFailureIsCachedWithoutRecompiling) {
  CompileService service(ServiceConfig{});
  Request bad;
  bad.source = "__kernel void broken(__global float* out) { out[0] = ; }";

  const ArtifactPtr first = service.run(bad);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->ok);
  EXPECT_FALSE(first->diagnostics.empty());
  EXPECT_EQ(service.stats().compiles, 1u);

  const ArtifactPtr second = service.run(bad);
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(second->ok);
  EXPECT_EQ(second->diagnostics, first->diagnostics);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, 1u) << "negative entry must not re-compile";
  EXPECT_EQ(s.memoryHits, 1u);
  EXPECT_EQ(s.negativeHits, 1u);
}

TEST(ServiceNegativeCache, UnknownAppAndBadPlatformAreRejected) {
  CompileService service(ServiceConfig{});
  Request r;
  r.appId = "NOT-AN-APP";
  EXPECT_THROW((void)service.submit(r), GroverError);
  Request p;
  p.appId = "NVD-MT";
  p.platform = "PDP-11";
  EXPECT_THROW((void)service.submit(p), GroverError);
  Request noApp;
  noApp.source = "__kernel void k(__global float* o) { o[0] = 1.0f; }";
  noApp.platform = "SNB";
  EXPECT_THROW((void)service.submit(noApp), GroverError);
}

TEST(ServiceDiskTier, SecondServiceLoadsFromDiskWithoutCompiling) {
  const std::string dir = freshDir("disk");
  Request req;
  req.appId = "NVD-MT";
  req.platform = "SNB";
  req.scale = apps::Scale::Test;

  ServiceConfig config;
  config.cache.diskDir = dir;
  ArtifactPtr cold;
  {
    CompileService service(config);
    cold = service.run(req);
    ASSERT_TRUE(cold->ok);
    EXPECT_EQ(service.stats().compiles, 1u);
    EXPECT_EQ(service.stats().diskStores, 1u);
  }

  CompileService warm(config);
  const ArtifactPtr reloaded = warm.run(req);
  ASSERT_TRUE(reloaded->ok);
  const ServiceStats s = warm.stats();
  EXPECT_EQ(s.compiles, 0u) << "disk artifact must satisfy the request";
  EXPECT_EQ(s.diskHits, 1u);
  // Full fidelity through the printer/parser cache format.
  EXPECT_EQ(reloaded->transformedText, cold->transformedText);
  EXPECT_EQ(reloaded->originalText, cold->originalText);
  ASSERT_EQ(reloaded->report.buffers.size(), cold->report.buffers.size());
  EXPECT_EQ(reloaded->report.buffers[0].solution,
            cold->report.buffers[0].solution);
  // Estimates are persisted bit-exactly.
  EXPECT_EQ(reloaded->cyclesWithLM, cold->cyclesWithLM);
  EXPECT_EQ(reloaded->cyclesWithoutLM, cold->cyclesWithoutLM);
  EXPECT_EQ(reloaded->normalized, cold->normalized);
  fs::remove_all(dir);
}

TEST(ServiceDiskTier, CorruptedArtifactFallsBackToRecompilation) {
  const std::string dir = freshDir("corrupt");
  Request req;
  req.appId = "AMD-MT";

  ServiceConfig config;
  config.cache.diskDir = dir;
  ArtifactPtr cold;
  {
    CompileService service(config);
    cold = service.run(req);
    ASSERT_TRUE(cold->ok);
  }

  // Corrupt every stored artifact in place.
  unsigned corrupted = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
    out << "groverart 1\nkey 0000000000000000\nthis is not an artifact\n";
    ++corrupted;
  }
  ASSERT_GE(corrupted, 1u);

  CompileService service(config);
  const ArtifactPtr recompiled = service.run(req);
  ASSERT_TRUE(recompiled->ok) << "corruption must not fail the request";
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.diskLoadFailures, 1u);
  EXPECT_EQ(s.diskHits, 0u);
  EXPECT_EQ(s.compiles, 1u);
  EXPECT_EQ(recompiled->transformedText, cold->transformedText);

  // Truncated/garbled module payload (valid-looking header, broken IR)
  // must also be rejected by the parse/verify/round-trip validation.
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string text;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      std::stringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
    const std::size_t pos = text.find("store");
    if (pos != std::string::npos) text.replace(pos, 5, "blorp");
    std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
    out << text;
  }
  CompileService service2(config);
  const ArtifactPtr again = service2.run(req);
  ASSERT_TRUE(again->ok);
  EXPECT_EQ(service2.stats().compiles, 1u);
  EXPECT_EQ(service2.stats().diskLoadFailures, 1u);
  fs::remove_all(dir);
}

TEST(ServiceDiskTier, ChangedStoredValueIsNotServed) {
  // Edits that leave a stored artifact well-formed: a changed estimate, a
  // changed IR constant (the module still parses and prints back as
  // written), and a file of the previous format. None may be served.
  const std::string dir = freshDir("changed");
  const Request req = estimateRequest("NVD-MT", "SNB");
  ServiceConfig config;
  config.cache.diskDir = dir;
  ArtifactPtr cold;
  {
    CompileService service(config);
    cold = service.run(req);
    ASSERT_TRUE(cold->ok);
    ASSERT_TRUE(cold->hasEstimate);
  }
  const std::uint64_t key =
      CompileService::cacheKey(CompileService::resolve(req));
  const std::string path = ArtifactCache(config.cache).diskPath(key);
  const std::string stored = readFile(path);

  std::string changedEstimate = stored;
  {
    const std::size_t line = changedEstimate.find("\nb normalized ");
    ASSERT_NE(line, std::string::npos);
    const std::size_t digit = changedEstimate.find('\n', line + 1) - 1;
    char& c = changedEstimate[digit];
    c = c == '9' ? '8' : static_cast<char>(c + 1);
  }
  std::string changedModule = stored;
  {
    const std::size_t payload = changedModule.find("\ns transformed ");
    ASSERT_NE(payload, std::string::npos);
    const std::string from = "get_local_id(i32 0)";
    const std::size_t at = changedModule.find(from, payload);
    ASSERT_NE(at, std::string::npos);
    changedModule.replace(at, from.size(), "get_local_id(i32 1)");
  }
  // Well-formed in the previous format, empty modules included.
  const std::string previousFormat =
      "groverart 2\nkey " + toHex64(key) +
      "\ni ok 1\ns diagnostics 0\n\ni anyTransformed 0\n"
      "i barriersRemoved 0\ni numBuffers 0\ni hasEstimate 1\n"
      "b cyclesWithLM 4607182418800017408\n"
      "b cyclesWithoutLM 4607182418800017408\n"
      "b normalized 4607182418800017408\ni outcome 2\n"
      "i proofOriginal 0\ni proofTransformed 0\ns proofNote 0\n\n"
      "i proofVetoed 0\ns original 0\n\ns transformed 0\n\nend\n";

  const std::vector<std::pair<std::string, std::string>> edits = {
      {"changed estimate digit", changedEstimate},
      {"changed IR constant", changedModule},
      {"groverart 2 file", previousFormat}};
  for (const auto& [what, text] : edits) {
    writeFile(path, text);
    {
      ArtifactCache cache(config.cache);
      EXPECT_EQ(cache.loadFromDisk(key), nullptr) << what;
      EXPECT_EQ(cache.stats().diskLoadFailures, 1u) << what;
      EXPECT_FALSE(fs::exists(path)) << what << ": file must be deleted";
    }
    writeFile(path, text);
    CompileService service(config);
    const ArtifactPtr served = service.run(req);
    ASSERT_TRUE(served->ok) << what;
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.diskLoadFailures, 1u) << what;
    EXPECT_EQ(s.diskHits, 0u) << what;
    EXPECT_EQ(s.compiles, 1u) << what;
    expectSameArtifact(*served, *cold, what);
    EXPECT_EQ(readFile(path), stored) << what << ": file must be rewritten";
  }
  fs::remove_all(dir);
}

TEST(ServiceDiskTier, StoreWritesOnlyPrintParseStableModules) {
  const std::string dir = freshDir("stable");
  ArtifactCache::Config config;
  config.diskDir = dir;
  ArtifactCache cache(config);
  const ArtifactPtr good =
      CompileService(ServiceConfig{}).run(estimateRequest("NVD-MT", "SNB"));
  ASSERT_TRUE(good->ok);

  const std::vector<std::pair<std::string, std::string>> unstable = {
      {"not IR", "this is not a module\n"},
      {"reparses but prints differently", good->originalText + "\n\n"}};
  std::uint64_t key = 1;
  for (const auto& [what, text] : unstable) {
    Artifact bad = *good;
    bad.originalText = text;
    cache.storeToDisk(key, bad);
    EXPECT_FALSE(fs::exists(cache.diskPath(key))) << what;
    EXPECT_EQ(cache.stats().diskStores, 0u) << what;
    ++key;
  }
  cache.storeToDisk(key, *good);
  EXPECT_TRUE(fs::exists(cache.diskPath(key)));
  EXPECT_EQ(cache.stats().diskStores, 1u);
  fs::remove_all(dir);
}

TEST(ServiceDiskTier, RestartedServiceAnswersAutoFromDisk) {
  const std::string dir = freshDir("restart");
  const Request req = estimateRequest("NVD-MT", "SNB");
  ServiceConfig config;
  config.cache.diskDir = dir + "/cache";
  config.policyStore.diskDir = dir + "/policy";
  AutoResult first;
  {
    CompileService a(config);
    first = a.compileAuto(req);
    ASSERT_TRUE(first.eligible);
    ASSERT_FALSE(first.policyHit);
    ASSERT_TRUE(first.artifact->ok);
    EXPECT_TRUE(first.artifact->hasFeatures);
    EXPECT_EQ(first.artifact->policyKey, first.policyKey);
  }

  // A fresh service on the same directories: two file reads, and no front
  // end, Grover, print or estimate.
  CompileService b(config);
  const AutoResult restarted = b.compileAuto(req);
  ASSERT_TRUE(restarted.eligible);
  EXPECT_TRUE(restarted.policyHit);
  EXPECT_EQ(restarted.policyKey, first.policyKey);
  EXPECT_EQ(restarted.features.str(), first.features.str());
  EXPECT_EQ(restarted.decision.variant, first.decision.variant);
  EXPECT_EQ(restarted.servedText(), first.servedText());
  ASSERT_TRUE(restarted.artifact->ok);
  EXPECT_TRUE(restarted.artifact->hasEstimate) << "the full artifact";
  expectSameArtifact(*restarted.artifact, *first.artifact, "restarted");
  ServiceStats s = b.stats();
  EXPECT_EQ(s.compiles, 0u);
  EXPECT_EQ(s.diskHits, 1u);
  EXPECT_EQ(s.featureKeysReused, 1u);
  EXPECT_EQ(s.policyHits, 1u);
  EXPECT_EQ(s.frontendMs, 0.0);
  EXPECT_EQ(s.groverMs, 0.0);
  EXPECT_EQ(s.printMs, 0.0);
  EXPECT_EQ(s.estimateMs, 0.0);

  // The plain request that follows is a memory hit.
  const ArtifactPtr plain = b.run(req);
  EXPECT_EQ(plain.get(), restarted.artifact.get());
  s = b.stats();
  EXPECT_EQ(s.memoryHits, 1u);
  EXPECT_EQ(s.diskHits, 1u);
  EXPECT_EQ(s.compiles, 0u);
  fs::remove_all(dir);
}

TEST(ServiceDiskTier, RefutedDecisionWithoutStoredArtifactServesTheOriginal) {
  // A stored Transformed decision whose transform is Refuted, and no
  // artifact tier: the fresh service builds the variant the Refuted guard
  // serves, the original, from its own front end.
  const std::string dir = freshDir("refuted");
  const Request req = estimateRequest("NVD-MT", "SNB");
  ServiceConfig config;
  config.policyStore.diskDir = dir;
  AutoResult cold;
  {
    CompileService a(config);
    cold = a.compileAuto(req);
    ASSERT_TRUE(cold.eligible);
    ASSERT_TRUE(cold.artifact->ok);
    policy::Decision refuted = cold.decision;
    refuted.variant = policy::Variant::Transformed;
    refuted.proof = sym::ProofStatus::Refuted;
    a.policyStore().store(cold.policyKey, refuted);
  }

  CompileService b(config);
  const AutoResult warm = b.compileAuto(req);
  ASSERT_TRUE(warm.eligible);
  EXPECT_TRUE(warm.policyHit);
  EXPECT_EQ(warm.decision.variant, policy::Variant::Original);
  ASSERT_TRUE(warm.artifact->ok);
  EXPECT_FALSE(warm.artifact->hasEstimate) << "the warm build is partial";
  EXPECT_FALSE(warm.servedText().empty());
  EXPECT_EQ(warm.servedText(), cold.artifact->originalText);
  EXPECT_EQ(b.stats().compiles, 0u);
  fs::remove_all(dir);
}

TEST(ServiceEstimates, BitIdenticalToUncachedHarness) {
  Request req;
  req.appId = "NVD-MT";
  req.platform = "SNB";
  req.scale = apps::Scale::Test;

  CompileService service(ServiceConfig{});
  const ArtifactPtr served = service.run(req);
  ASSERT_TRUE(served->ok);
  ASSERT_TRUE(served->hasEstimate);

  const apps::Application& app = apps::applicationById("NVD-MT");
  const PerfComparison direct =
      comparePerformance(app, *perf::findPlatform("SNB"), apps::Scale::Test);
  EXPECT_EQ(served->cyclesWithLM, direct.cyclesWithLM);
  EXPECT_EQ(served->cyclesWithoutLM, direct.cyclesWithoutLM);
  EXPECT_EQ(served->normalized, direct.normalized);

  // A warm hit serves the very same artifact object.
  const ArtifactPtr warm = service.run(req);
  EXPECT_EQ(warm.get(), served.get());
}

TEST(ServiceMemo, SharedOriginalIsEstimatedOnce) {
  // The NVD-MM-A/B/AB originals print identically: one service estimates
  // that kernel once, and the other two requests reuse its cycles.
  const std::vector<std::string> apps = {"NVD-MM-A", "NVD-MM-B", "NVD-MM-AB"};
  CompileService service(ServiceConfig{});
  std::vector<ArtifactPtr> served;
  for (const std::string& app : apps) {
    served.push_back(service.run(estimateRequest(app, "SNB")));
    ASSERT_TRUE(served.back()->ok) << app;
    ASSERT_TRUE(served.back()->hasEstimate) << app;
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, 3u);
  EXPECT_EQ(s.estimatesReused, 2u);
  EXPECT_EQ(served[1]->cyclesWithLM, served[0]->cyclesWithLM);
  EXPECT_EQ(served[2]->cyclesWithLM, served[0]->cyclesWithLM);

  for (std::size_t i = 0; i < apps.size(); ++i) {
    CompileService fresh(ServiceConfig{});
    const ArtifactPtr alone = fresh.run(estimateRequest(apps[i], "SNB"));
    EXPECT_EQ(fresh.stats().estimatesReused, 0u) << apps[i];
    expectSameArtifact(*served[i], *alone, apps[i]);
  }
}

TEST(ServiceMemo, ServedPlatformsShareOneExecution) {
  // AMD-MT on all six platforms puts every platform in the served set.
  // NVD-MT's SNB request prices its kernels on SNB alone; its Nehalem
  // request, the second platform to ask for them, prices both on the five
  // remaining platforms with one execution each, and the other four
  // NVD-MT requests reuse them.
  CompileService service(ServiceConfig{});
  std::vector<std::pair<Request, ArtifactPtr>> served;
  for (const char* app : {"AMD-MT", "NVD-MT"}) {
    const std::uint64_t before = service.stats().estimatesReused;
    for (const perf::PlatformSpec& platform : perf::allPlatforms()) {
      const Request req = estimateRequest(app, platform.name);
      served.emplace_back(req, service.run(req));
      ASSERT_TRUE(served.back().second->hasEstimate) << app;
    }
    const std::uint64_t reused = service.stats().estimatesReused - before;
    EXPECT_EQ(reused, std::string(app) == "AMD-MT" ? 0u : 8u) << app;
  }
  EXPECT_EQ(service.stats().compiles, 12u);

  for (const auto& [req, artifact] : served) {
    CompileService fresh(ServiceConfig{});
    expectSameArtifact(*artifact, *fresh.run(req),
                       req.appId + " on " + req.platform);
  }
}

/// The estimates `service` reuses for `app` on `platform`.
std::uint64_t reusedBy(CompileService& service, const char* app,
                       const char* platform) {
  const std::uint64_t before = service.stats().estimatesReused;
  const ArtifactPtr a = service.run(estimateRequest(app, platform));
  EXPECT_TRUE(a->hasEstimate) << app << " on " << platform;
  return service.stats().estimatesReused - before;
}

TEST(ServiceMemo, UnservedPlatformIsNotPriced) {
  // NVD-MT's Nehalem request is the second platform to ask for its
  // kernels, but Fermi has not been served yet, so it prices Nehalem
  // alone and the Fermi request estimates anew. Once Fermi is served,
  // AMD-MT's Nehalem request prices Fermi too.
  CompileService service(ServiceConfig{});
  EXPECT_EQ(reusedBy(service, "NVD-MT", "SNB"), 0u);
  EXPECT_EQ(reusedBy(service, "NVD-MT", "Nehalem"), 0u);
  EXPECT_EQ(reusedBy(service, "NVD-MT", "Fermi"), 0u);
  EXPECT_EQ(reusedBy(service, "AMD-MT", "SNB"), 0u);
  EXPECT_EQ(reusedBy(service, "AMD-MT", "Nehalem"), 0u);
  EXPECT_EQ(reusedBy(service, "AMD-MT", "Fermi"), 2u);
}

TEST(ServiceMemo, KernelAskedForOnOnePlatformIsPricedThereAlone) {
  // Both platforms are served when NVD-MT's Fermi request prices its
  // kernels, but no other platform has asked for them, so it prices Fermi
  // alone: the later SNB request estimates anew.
  CompileService service(ServiceConfig{});
  EXPECT_EQ(reusedBy(service, "AMD-MT", "SNB"), 0u);
  EXPECT_EQ(reusedBy(service, "NVD-MT", "Fermi"), 0u);
  EXPECT_EQ(reusedBy(service, "NVD-MT", "SNB"), 0u);
}

TEST(ServiceMemo, ProofsArePlatformIndependent) {
  CompileService service(ServiceConfig{});
  const ArtifactPtr snb = service.run(estimateRequest("NVD-MT", "SNB", true));
  ASSERT_TRUE(snb->ok);
  const ServiceStats before = service.stats();
  EXPECT_EQ(before.proofsRun, 2u);
  EXPECT_EQ(before.proofsReused, 0u);

  const ArtifactPtr fermi =
      service.run(estimateRequest("NVD-MT", "Fermi", true));
  ASSERT_TRUE(fermi->ok);
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.compiles, 2u);
  EXPECT_EQ(after.proofsReused - before.proofsReused, 2u);
  EXPECT_EQ(after.proofsRun, before.proofsRun);
  EXPECT_EQ(after.proofsProved + after.proofsRefuted + after.proofsUnknown,
            after.proofsRun);
  EXPECT_EQ(fermi->proofOriginal, snb->proofOriginal);
  EXPECT_EQ(fermi->proofTransformed, snb->proofTransformed);
  EXPECT_EQ(fermi->proofNote, snb->proofNote);
  EXPECT_EQ(fermi->proofVetoed, snb->proofVetoed);
  EXPECT_NE(fermi->cyclesWithLM, snb->cyclesWithLM);  // estimated anew
}

TEST(ServiceMemo, RawSourceProofsAreNotMemoized) {
  // Two cache keys whose original modules print identically: a raw
  // source proves under a per-kernel geometry, and it proves every time.
  CompileService service(ServiceConfig{});
  for (const bool removeBarriers : {true, false}) {
    Request req;
    req.source = apps::applicationById("NVD-MT").source();
    req.options.prove = true;
    req.options.removeBarriers = removeBarriers;
    ASSERT_TRUE(service.run(req)->ok);
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, 2u);
  EXPECT_EQ(s.proofsReused, 0u);
  EXPECT_EQ(s.proofsRun, 4u);
}


TEST(ServiceCompileAuto, MemoryAnswerMatchesThePoolPath) {
  // Two services primed identically: `memory` answers from memory alone,
  // `pool` through the blocking entry points a groverd worker calls.
  const Request warm = estimateRequest("NVD-MT", "SNB", /*prove=*/true);
  const Request refuted = estimateRequest("AMD-SS", "SNB");
  Request broken;
  broken.source = "__kernel void broken(__global float* out) { out[0] = ; }";
  CompileService memory(ServiceConfig{});
  CompileService pool(ServiceConfig{});
  for (CompileService* svc : {&memory, &pool}) {
    for (const Request& r : {warm, refuted}) {
      const AutoResult cold = svc->compileAuto(r);
      ASSERT_TRUE(cold.eligible);
      ASSERT_FALSE(cold.policyHit);
      ASSERT_TRUE(svc->run(r)->ok);
    }
    ASSERT_FALSE(svc->run(broken)->ok);
    // A stored Refuted proof on a Transformed decision: the guard serves
    // the original, whatever the stored variant says.
    const std::uint64_t key = svc->compileAuto(refuted).policyKey;
    policy::Decision d = *svc->policyStore().lookup(key);
    d.variant = policy::Variant::Transformed;
    d.predictedOutcome = perf::Outcome::Gain;
    d.proof = sym::ProofStatus::Refuted;
    svc->policyStore().store(key, d);
  }

  // Plain hits, a cached failure among them: requests + memoryHits
  // (+ negativeHits), nothing else.
  for (const Request& r : {warm, broken}) {
    const std::string what = r.appId.empty() ? "negative" : "plain";
    const ServiceStats m0 = memory.stats();
    const ServiceStats p0 = pool.stats();
    const ArtifactPtr fromMemory = memory.answerFromMemory(r);
    const ArtifactPtr fromPool = pool.run(r);
    ASSERT_NE(fromMemory, nullptr) << what;
    expectSameArtifact(*fromMemory, *fromPool, what);
    const std::vector<std::int64_t> moved =
        countDeltas(m0, memory.stats());
    EXPECT_EQ(moved, countDeltas(p0, pool.stats())) << what;
    ServiceStats expected;
    expected.requests = 1;
    expected.memoryHits = 1;
    expected.negativeHits = r.appId.empty() ? 1 : 0;
    EXPECT_EQ(moved, countDeltas(ServiceStats{}, expected)) << what;
  }

  // Auto hits: featureKeysReused + policyHits, nothing else.
  for (const Request& r : {warm, refuted}) {
    const std::string what = r.appId + " auto";
    const ServiceStats m0 = memory.stats();
    const ServiceStats p0 = pool.stats();
    const std::optional<AutoResult> fromMemory =
        memory.answerAutoFromMemory(r);
    const AutoResult fromPool = pool.compileAuto(r);
    ASSERT_TRUE(fromMemory.has_value()) << what;
    EXPECT_TRUE(fromMemory->eligible) << what;
    EXPECT_TRUE(fromMemory->policyHit) << what;
    EXPECT_TRUE(fromPool.policyHit) << what;
    EXPECT_EQ(fromMemory->policyKey, fromPool.policyKey) << what;
    EXPECT_EQ(fromMemory->servedText(), fromPool.servedText()) << what;
    expectSameArtifact(*fromMemory->artifact, *fromPool.artifact, what);
    expectSameDecision(fromMemory->decision, fromPool.decision, what);
    const std::vector<std::int64_t> moved =
        countDeltas(m0, memory.stats());
    EXPECT_EQ(moved, countDeltas(p0, pool.stats())) << what;
    ServiceStats expected;
    expected.featureKeysReused = 1;
    expected.policyHits = 1;
    EXPECT_EQ(moved, countDeltas(ServiceStats{}, expected)) << what;
  }
  const std::optional<AutoResult> guarded =
      memory.answerAutoFromMemory(refuted);
  ASSERT_TRUE(guarded.has_value());
  EXPECT_EQ(guarded->decision.variant, policy::Variant::Original);
  EXPECT_EQ(guarded->decision.predictedOutcome, perf::Outcome::Loss);
  EXPECT_EQ(guarded->servedText(), guarded->artifact->originalText);
}

TEST(ServiceCompileAuto, MemoryAnswerDeclinesWithoutCounting) {
  const Request req = estimateRequest("NVD-MT", "SNB");
  const Request other = estimateRequest("AMD-SS", "SNB");
  // Declines, and moves no count.
  const auto expectDeclined = [](CompileService& svc, const Request& r,
                                 const std::string& what) {
    const ServiceStats before = svc.stats();
    EXPECT_FALSE(svc.answerAutoFromMemory(r).has_value()) << what;
    EXPECT_EQ(counts(svc.stats()), counts(before)) << what;
  };

  // The feature key is not memoized, though the artifact (which carries
  // the key) and the decision are both in memory.
  {
    CompileService learner(ServiceConfig{});
    const AutoResult cold = learner.compileAuto(req);
    ASSERT_TRUE(cold.eligible);
    CompileService svc(ServiceConfig{});
    ASSERT_TRUE(svc.run(req)->hasFeatures);
    svc.policyStore().store(cold.policyKey, cold.decision);
    expectDeclined(svc, req, "feature key not memoized");
  }

  // The decision is only on disk: a fresh service over a filled policy
  // directory whose one-entry memory tier a second key has taken.
  {
    const std::string dir = freshDir("decline");
    ServiceConfig config;
    config.policyStore.diskDir = dir;
    {
      CompileService filler(config);
      ASSERT_TRUE(filler.compileAuto(req).eligible);
      ASSERT_TRUE(filler.compileAuto(other).eligible);
    }
    config.policyStore.maxEntries = 1;
    config.policyStore.shards = 1;
    CompileService svc(config);
    ASSERT_TRUE(svc.compileAuto(req).policyHit);

    // The decision is warm but no full artifact is in memory (a policy
    // hit builds only the winner and never caches it).
    expectDeclined(svc, req, "no full artifact");

    ASSERT_TRUE(svc.run(req)->ok);
    ASSERT_TRUE(svc.answerAutoFromMemory(req).has_value());
    ASSERT_TRUE(svc.compileAuto(other).policyHit);
    expectDeclined(svc, req, "decision only on disk");
    fs::remove_all(dir);
  }

  // Synchronous sampling: the pool path may measure inline.
  {
    ServiceConfig config;
    config.measureRate = 0.5;
    CompileService svc(config);
    ASSERT_TRUE(svc.compileAuto(req).eligible);
    ASSERT_TRUE(svc.run(req)->ok);
    expectDeclined(svc, req, "measureRate > 0, no queue");
  }

  // A mismatched decision past the decay horizon is re-measured inline.
  {
    ServiceConfig config;
    config.policyDecayHorizonMs = 1000;
    CompileService svc(config);
    const AutoResult cold = svc.compileAuto(req);
    ASSERT_TRUE(svc.run(req)->ok);
    ASSERT_TRUE(svc.answerAutoFromMemory(req).has_value());
    policy::Decision stale = cold.decision;
    stale.mismatch = true;
    stale.storedAtMs = nowMs() - 10 * config.policyDecayHorizonMs;
    svc.policyStore().store(cold.policyKey, stale);
    expectDeclined(svc, req, "stale mismatch");
  }

  // An unknown app or platform declines without throwing; submit() and
  // compileAuto() report it.
  {
    CompileService svc(ServiceConfig{});
    ASSERT_TRUE(svc.compileAuto(req).eligible);
    ASSERT_TRUE(svc.run(req)->ok);
    Request unknownApp = req;
    unknownApp.appId = "NOT-AN-APP";
    Request unknownPlatform = req;
    unknownPlatform.platform = "PDP-11";
    for (const Request& r : {unknownApp, unknownPlatform}) {
      const std::string what = r.appId + " on " + r.platform;
      expectDeclined(svc, r, what);
      const ServiceStats before = svc.stats();
      EXPECT_EQ(svc.answerFromMemory(r), nullptr) << what;
      EXPECT_EQ(counts(svc.stats()), counts(before)) << what;
      EXPECT_THROW((void)svc.compileAuto(r), GroverError) << what;
    }
  }
}

}  // namespace
}  // namespace grover::service
