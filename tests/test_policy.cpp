// Policy engine (src/policy, DESIGN.md §10): feature extraction and key
// stability, decision-store round-trips through both tiers (including
// the corrupt-entry fallback), feedback-driven decision flips, agreement
// of DecisionEngine verdicts with the estimator-derived Table IV labels
// on all 33 app×platform cases, and the compileAuto() warm path
// skipping the losing variant's pipeline and the front end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "grovercl/compiler.h"
#include "grovercl/harness.h"
#include "perf/platform.h"
#include "policy/decision_engine.h"
#include "policy/features.h"
#include "policy/feedback.h"
#include "policy/policy_store.h"
#include "service/compile_service.h"
#include "support/hash.h"

namespace {

namespace fs = std::filesystem;
using namespace grover;

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("grover_policy_" + std::to_string(::getpid()) +
                        "_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

policy::KernelFeatures featuresOf(const std::string& appId) {
  const apps::Application& app = apps::applicationById(appId);
  Program program = compile(app.source());
  ir::Function* kernel = program.kernel(app.kernelName());
  EXPECT_NE(kernel, nullptr);
  const apps::Instance inst = app.makeInstance(apps::Scale::Test);
  return policy::extractFeatures(*kernel, &inst.range);
}

const std::vector<std::string>& table4Apps() {
  static const std::vector<std::string> apps = {
      "AMD-SS",   "AMD-MT",   "NVD-MT",    "AMD-RG",
      "AMD-MM",   "NVD-MM-A", "NVD-MM-B",  "NVD-MM-AB",
      "NVD-NBody", "PAB-ST",  "ROD-SC"};
  return apps;
}

TEST(PolicyFeatures, ExtractsLocalMemoryShapeOfMatrixTranspose) {
  const policy::KernelFeatures f = featuresOf("NVD-MT");
  EXPECT_GT(f.localBytes, 0u);
  EXPECT_EQ(f.numLocalBuffers, 1u);
  EXPECT_EQ(f.numReversibleBuffers, 1u);
  EXPECT_GE(f.numBarriers, 1u);
  EXPECT_GE(f.numStagingPairs, 1u);
  EXPECT_GT(f.localLoads, 0u);
  EXPECT_GT(f.totalInsts, 0u);
  // The transpose reads the tile with lx scaled by the row pitch — the
  // strided shape that makes the lowered global reads uncoalesced.
  EXPECT_EQ(f.llStride, policy::StrideShape::Scaled);
  EXPECT_EQ(f.localSize[0], 16u);
  EXPECT_FALSE(f.str().empty());
}

TEST(PolicyFeatures, KeyIsStableAndDiscriminates) {
  const policy::KernelFeatures a = featuresOf("NVD-MT");
  const policy::KernelFeatures b = featuresOf("NVD-MT");
  // Two independent compilations of the same kernel → identical key.
  EXPECT_EQ(policy::featureKey(a, "SNB", 0), policy::featureKey(b, "SNB", 0));
  // Platform and scale are part of the key.
  EXPECT_NE(policy::featureKey(a, "SNB", 0), policy::featureKey(a, "MIC", 0));
  EXPECT_NE(policy::featureKey(a, "SNB", 0), policy::featureKey(a, "SNB", 1));
  // A different kernel shape → different key.
  const policy::KernelFeatures c = featuresOf("AMD-MM");
  EXPECT_NE(policy::featureKey(a, "SNB", 0), policy::featureKey(c, "SNB", 0));
}

TEST(PolicyStore, MemoryRoundTripAndLruEviction) {
  policy::PolicyStore::Config config;
  config.maxEntries = 8;
  config.shards = 1;
  policy::PolicyStore store(config);

  policy::Decision d;
  d.variant = policy::Variant::Transformed;
  d.predictedOutcome = perf::Outcome::Gain;
  d.predictedNp = 1.5;
  d.confidence = 0.95;
  d.source = "estimate";
  store.store(7, d);

  const auto hit = store.lookup(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->variant, policy::Variant::Transformed);
  EXPECT_EQ(hit->predictedNp, 1.5);
  EXPECT_EQ(hit->source, "estimate");
  EXPECT_FALSE(store.lookup(8).has_value());

  // Overflow the single shard: oldest entries evict, newest survive.
  for (std::uint64_t k = 100; k < 120; ++k) store.store(k, d);
  EXPECT_FALSE(store.lookup(7).has_value());
  EXPECT_TRUE(store.lookup(119).has_value());
  const auto stats = store.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 8u);
}

TEST(PolicyStore, DiskTierRoundTripIsBitExact) {
  const fs::path dir = freshDir("disk");
  policy::Decision d;
  d.variant = policy::Variant::Original;
  d.predictedOutcome = perf::Outcome::Loss;
  d.predictedNp = 0.7428913762197;  // exercises the bit-pattern encoding
  d.confidence = 0.75;
  d.source = "estimate";
  d.ewmaNp = 0.81234567890123;
  d.observations = 3;
  d.mismatch = true;
  {
    policy::PolicyStore::Config config;
    config.diskDir = dir.string();
    policy::PolicyStore store(config);
    store.store(42, d);
    EXPECT_EQ(store.stats().diskStores, 1u);
  }
  // A fresh store over the same directory reloads the decision exactly.
  policy::PolicyStore::Config config;
  config.diskDir = dir.string();
  policy::PolicyStore reloaded(config);
  const auto hit = reloaded.lookup(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->variant, d.variant);
  EXPECT_EQ(hit->predictedOutcome, d.predictedOutcome);
  EXPECT_EQ(hit->predictedNp, d.predictedNp);  // bit-identical
  EXPECT_EQ(hit->ewmaNp, d.ewmaNp);
  EXPECT_EQ(hit->observations, 3u);
  EXPECT_TRUE(hit->mismatch);
  EXPECT_EQ(reloaded.stats().diskHits, 1u);
  // Second lookup is served from the populated memory tier.
  EXPECT_TRUE(reloaded.lookup(42).has_value());
  EXPECT_EQ(reloaded.stats().diskHits, 1u);
  fs::remove_all(dir);
}

TEST(PolicyStore, CorruptDiskEntryIsDeletedAndMisses) {
  const fs::path dir = freshDir("corrupt");
  policy::PolicyStore::Config config;
  config.diskDir = dir.string();
  {
    policy::PolicyStore store(config);
    policy::Decision d;
    d.predictedNp = 1.2;
    store.store(42, d);
  }
  policy::PolicyStore store(config);
  const std::string path = store.diskPath(42);
  {
    // Truncate mid-file: exactly the state an interrupted write would
    // have produced without the temp-file + rename protocol.
    std::ofstream out(path, std::ios::trunc);
    out << "groverpol 1\nkey ";
  }
  EXPECT_FALSE(store.lookup(42).has_value());
  EXPECT_EQ(store.stats().diskLoadFailures, 1u);
  EXPECT_FALSE(fs::exists(path)) << "corrupt entry must be deleted";
  // The slot is reusable: a fresh decision persists and reloads.
  policy::Decision d;
  d.predictedNp = 0.9;
  store.store(42, d);
  policy::PolicyStore again(config);
  ASSERT_TRUE(again.lookup(42).has_value());
  EXPECT_EQ(again.lookup(42)->predictedNp, 0.9);
  fs::remove_all(dir);
}

TEST(PolicyStore, ChangedStoredVariantIsNotServed) {
  // Well-formed edits of a stored decision — a flipped variant, and a
  // file of the previous format — are dropped, never served.
  const fs::path dir = freshDir("changed");
  policy::PolicyStore::Config config;
  config.diskDir = dir.string();
  policy::Decision d;
  d.variant = policy::Variant::Transformed;
  d.predictedOutcome = perf::Outcome::Gain;
  d.predictedNp = 2.252;
  d.confidence = 0.95;
  d.source = "estimate";
  const std::string path = policy::PolicyStore(config).diskPath(42);
  const auto storeAndRead = [&] {
    policy::PolicyStore(config).store(42, d);
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };

  std::string changedVariant = storeAndRead();
  const std::size_t at = changedVariant.find("i variant 1\n");
  ASSERT_NE(at, std::string::npos);
  changedVariant.replace(at, 11, "i variant 0");
  const std::string previousFormat =
      "groverpol 2\nkey " + toHex64(42) +
      "\ni variant 0\ni outcome 1\nb predictedNp 4607182418800017408\n"
      "b confidence 4606732058837280358\ns source 8\nestimate\n"
      "b ewmaNp 0\ni observations 0\ni mismatch 0\ni proof 0\n"
      "i storedAtMs 0\nend\n";

  const std::vector<std::pair<std::string, std::string>> edits = {
      {"changed variant", changedVariant},
      {"groverpol 2 file", previousFormat}};
  for (const auto& [what, text] : edits) {
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << text;
    }
    policy::PolicyStore store(config);
    EXPECT_FALSE(store.lookup(42).has_value()) << what;
    EXPECT_EQ(store.stats().diskLoadFailures, 1u) << what;
    EXPECT_FALSE(fs::exists(path)) << what << ": file must be deleted";
    // Re-deciding rewrites the entry, and it reloads as stored.
    (void)storeAndRead();
    policy::PolicyStore again(config);
    const auto hit = again.lookup(42);
    ASSERT_TRUE(hit.has_value()) << what;
    EXPECT_EQ(hit->variant, policy::Variant::Transformed) << what;
    EXPECT_EQ(hit->predictedNp, 2.252) << what;
    EXPECT_EQ(again.stats().diskLoadFailures, 0u) << what;
  }
  fs::remove_all(dir);
}

TEST(PolicyFeedback, MeasurementsFlipAContradictedDecision) {
  policy::PolicyStore store({});
  policy::Decision d;
  d.variant = policy::Variant::Transformed;
  d.predictedOutcome = perf::Outcome::Gain;
  d.predictedNp = 1.4;
  d.confidence = 0.95;
  d.source = "estimate";
  store.store(1, d);

  policy::FeedbackLoop feedback(store);
  // Measured reality says the transform loses on this kernel shape.
  policy::Decision updated = feedback.recordMeasurement(1, 0.6);
  EXPECT_EQ(updated.observations, 1u);
  EXPECT_EQ(updated.ewmaNp, 0.6);
  EXPECT_EQ(updated.variant, policy::Variant::Original)
      << "first contradicting measurement already flips at EWMA 0.6";
  EXPECT_EQ(updated.source, "feedback");
  EXPECT_TRUE(updated.mismatch) << "0.6 vs predicted 1.4 is way past 15%";

  updated = feedback.recordMeasurement(1, 0.7);
  EXPECT_EQ(updated.observations, 2u);
  EXPECT_NEAR(updated.ewmaNp, 0.3 * 0.7 + 0.7 * 0.6, 1e-12);

  const auto stats = feedback.stats();
  EXPECT_EQ(stats.measurements, 2u);
  EXPECT_EQ(stats.flips, 1u);
  EXPECT_EQ(stats.mismatches, 1u);

  // The flipped decision is what the store now serves.
  EXPECT_EQ(store.lookup(1)->variant, policy::Variant::Original);
}

TEST(PolicyFeedback, UnknownKeyBootstrapsFromMeasurement) {
  policy::PolicyStore store({});
  policy::FeedbackLoop feedback(store);
  const policy::Decision d = feedback.recordMeasurement(99, 1.3);
  EXPECT_EQ(d.source, "feedback");
  EXPECT_EQ(d.variant, policy::Variant::Transformed);
  EXPECT_EQ(d.observations, 1u);
  EXPECT_TRUE(store.lookup(99).has_value());
}

TEST(PolicyFeedback, AgreeingMeasurementsKeepTheDecision) {
  policy::PolicyStore store({});
  policy::Decision d;
  d.variant = policy::Variant::Transformed;
  d.predictedOutcome = perf::Outcome::Gain;
  d.predictedNp = 1.4;
  store.store(1, d);
  policy::FeedbackLoop feedback(store);
  const policy::Decision updated = feedback.recordMeasurement(1, 1.38);
  EXPECT_EQ(updated.variant, policy::Variant::Transformed);
  EXPECT_FALSE(updated.mismatch);
  EXPECT_EQ(feedback.stats().flips, 0u);
}

// The acceptance bar of ISSUE 5: the engine's verdict must agree with
// the estimator-derived Gain/Loss/Similar label on ≥ 30 of the 33
// app×platform cases (11 Table IV apps × 3 cache-only platforms).
// Estimates dominate the prior by construction, so this holds on all 33;
// Test scale keeps the suite fast (the labels differ from Bench scale,
// but the agreement property is scale-independent).
TEST(PolicyEngine, AgreesWithEstimatorLabelsOnAll33Table4Cases) {
  policy::DecisionEngine engine;
  int agree = 0, total = 0;
  for (const std::string& id : table4Apps()) {
    const apps::Application& app = apps::applicationById(id);
    const policy::KernelFeatures features = featuresOf(id);
    for (const perf::PlatformSpec& spec : perf::cacheOnlyPlatforms()) {
      const PerfComparison cmp =
          comparePerformance(app, spec, apps::Scale::Test);
      const policy::Decision d = engine.decide(
          features, spec,
          policy::EstimatePair{cmp.cyclesWithLM, cmp.cyclesWithoutLM});
      ++total;
      if (d.predictedOutcome == cmp.outcome) ++agree;
      // The served variant must be consistent with the verdict.
      if (cmp.outcome == perf::Outcome::Gain) {
        EXPECT_EQ(d.variant, policy::Variant::Transformed) << id;
      } else if (cmp.outcome == perf::Outcome::Loss) {
        EXPECT_EQ(d.variant, policy::Variant::Original) << id;
      }
    }
  }
  EXPECT_EQ(total, 33);
  EXPECT_GE(agree, 30) << "engine verdicts diverge from estimator labels";
}

TEST(PolicyEngine, PriorServesOriginalWhenNothingIsReversible) {
  policy::DecisionEngine engine;
  const auto snb = perf::findPlatform("SNB");
  ASSERT_TRUE(snb.has_value());
  policy::KernelFeatures f;  // no reversible buffers, no staging
  const policy::Decision d = engine.prior(f, *snb);
  EXPECT_EQ(d.variant, policy::Variant::Original);
  EXPECT_EQ(d.predictedOutcome, perf::Outcome::Similar);
  EXPECT_EQ(d.source, "prior");
  EXPECT_GT(d.confidence, 0.8);
}

TEST(ServiceCompileAuto, WarmHitSkipsLoserPipelineAndEstimation) {
  const fs::path dir = freshDir("auto");
  service::Request request;
  request.appId = "NVD-MT";
  request.platform = "SNB";
  request.scale = apps::Scale::Test;

  std::string coldServedText;
  std::uint64_t coldKey = 0;
  {
    service::ServiceConfig config;
    config.workers = 2;
    config.policyStore.diskDir = dir.string();
    service::CompileService svc(config);
    const service::AutoResult cold = svc.compileAuto(request);
    ASSERT_TRUE(cold.eligible);
    EXPECT_FALSE(cold.policyHit);
    ASSERT_TRUE(cold.artifact->ok);
    EXPECT_TRUE(cold.artifact->hasEstimate);
    EXPECT_EQ(cold.decision.source, "estimate");
    coldServedText = cold.servedText();
    coldKey = cold.policyKey;
    EXPECT_FALSE(coldServedText.empty());
    const service::ServiceStats s = svc.stats();
    EXPECT_EQ(s.policyMisses, 1u);
    EXPECT_EQ(s.policyStores, 1u);
    EXPECT_EQ(s.compiles, 1u);
  }

  // Fresh service, fresh (cold) artifact cache, same policy directory:
  // the decision is warm, so only the winning variant is built and the
  // estimator never runs.
  service::ServiceConfig config;
  config.workers = 2;
  config.policyStore.diskDir = dir.string();
  service::CompileService svc(config);
  const service::AutoResult warm = svc.compileAuto(request);
  ASSERT_TRUE(warm.eligible);
  EXPECT_TRUE(warm.policyHit);
  EXPECT_EQ(warm.policyKey, coldKey);
  ASSERT_TRUE(warm.artifact->ok);
  EXPECT_FALSE(warm.artifact->hasEstimate) << "warm path must not estimate";
  EXPECT_EQ(warm.servedText(), coldServedText)
      << "warm hit serves the same winning variant bit-for-bit";
  const service::ServiceStats s = svc.stats();
  EXPECT_EQ(s.policyHits, 1u);
  EXPECT_EQ(s.compiles, 0u) << "full pipeline must not run on a warm hit";
  EXPECT_EQ(s.estimateMs, 0.0);
  EXPECT_EQ(s.featureKeysReused, 0u);
  // NVD-MT on SNB is the paper's flagship gain: the transformed variant
  // is served, and the losing (original) text was never printed.
  EXPECT_EQ(warm.decision.variant, policy::Variant::Transformed);
  EXPECT_TRUE(warm.artifact->originalText.empty());

  // The same request again reuses the memoized feature key, but the
  // partial artifact above was never cached: the winner is built from a
  // front-end compile made on demand.
  const service::AutoResult again = svc.compileAuto(request);
  ASSERT_TRUE(again.eligible);
  EXPECT_TRUE(again.policyHit);
  EXPECT_EQ(again.policyKey, coldKey);
  ASSERT_TRUE(again.artifact->ok);
  EXPECT_EQ(again.servedText(), coldServedText);
  EXPECT_TRUE(again.artifact->originalText.empty());
  const service::ServiceStats s2 = svc.stats();
  EXPECT_EQ(s2.compiles, 0u);
  EXPECT_EQ(s2.featureKeysReused, 1u);
  fs::remove_all(dir);
}

TEST(ServiceCompileAuto, SharedSourceAppsKeepDistinctFeatureKeys) {
  // NVD-MM-A, -B and -AB share one kernel source but disable different
  // buffers; on SNB, A and B keep local memory while AB drops it. A memo
  // keyed on the source alone would hand all three one decision.
  const std::vector<std::string> ids = {"NVD-MM-A", "NVD-MM-B", "NVD-MM-AB"};
  service::ServiceConfig config;
  config.workers = 2;
  service::CompileService svc(config);
  const auto requestFor = [](const std::string& id) {
    service::Request r;
    r.appId = id;
    r.platform = "SNB";
    r.scale = apps::Scale::Test;
    return r;
  };

  std::vector<service::AutoResult> cold;
  for (const std::string& id : ids) {
    cold.push_back(svc.compileAuto(requestFor(id)));
    ASSERT_TRUE(cold.back().eligible) << id;
    EXPECT_FALSE(cold.back().policyHit) << id;
  }
  EXPECT_EQ(cold[0].decision.variant, policy::Variant::Original);
  EXPECT_EQ(cold[1].decision.variant, policy::Variant::Original);
  EXPECT_EQ(cold[2].decision.variant, policy::Variant::Transformed);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const service::AutoResult warm = svc.compileAuto(requestFor(ids[i]));
    EXPECT_TRUE(warm.policyHit) << ids[i];
    EXPECT_EQ(warm.policyKey, cold[i].policyKey) << ids[i];
    EXPECT_EQ(warm.features.str(), cold[i].features.str()) << ids[i];
    EXPECT_EQ(warm.decision.variant, cold[i].decision.variant) << ids[i];
  }
  EXPECT_NE(cold[0].policyKey, cold[1].policyKey);
  EXPECT_NE(cold[0].policyKey, cold[2].policyKey);
  EXPECT_NE(cold[1].policyKey, cold[2].policyKey);
  EXPECT_EQ(svc.stats().featureKeysReused, 3u);
}

TEST(ServiceCompileAuto, MeasurementFeedbackReachesTheStore) {
  service::ServiceConfig config;
  config.workers = 2;
  service::CompileService svc(config);
  service::Request request;
  request.appId = "NVD-MT";
  request.platform = "SNB";
  request.scale = apps::Scale::Test;
  const service::AutoResult cold = svc.compileAuto(request);
  ASSERT_TRUE(cold.eligible);

  // Contradicting measurements flip the stored decision…
  (void)svc.recordMeasurement(cold.policyKey, 0.5);
  const service::AutoResult warm = svc.compileAuto(request);
  EXPECT_TRUE(warm.policyHit);
  EXPECT_EQ(warm.decision.variant, policy::Variant::Original);
  EXPECT_GE(warm.decision.observations, 1u);
  const service::ServiceStats s = svc.stats();
  EXPECT_EQ(s.policyFlips, 1u);
  EXPECT_EQ(s.policyMismatches, 1u);
}

TEST(ServiceCompileAuto, RequestWithoutPlatformFallsBackToNormalPath) {
  service::CompileService svc;
  service::Request request;
  request.appId = "NVD-MT";  // no platform → nothing to decide
  const service::AutoResult r = svc.compileAuto(request);
  EXPECT_FALSE(r.eligible);
  EXPECT_FALSE(r.policyHit);
  ASSERT_TRUE(r.artifact->ok);
  EXPECT_FALSE(r.artifact->transformedText.empty());
}

}  // namespace
