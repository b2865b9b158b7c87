// Single-flight deduplication under contention: many threads hammering a
// small key set must trigger exactly one compilation per unique key, and
// every waiter must observe identical module text. Requests for one
// kernel on every platform, compiling at once, agree with a sequential
// run. A restarted service racing auto and plain requests over filled
// disk tiers compiles nothing and agrees with a sequential run. Memory-only
// answers racing cold compiles and decision flips agree with a sequential
// run too. The two-tier record store under both stores keeps its budget
// and its counts while threads mix memory and disk calls on one shard.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perf/platform.h"
#include "service/compile_service.h"
#include "support/diagnostics.h"
#include "support/record_store.h"

namespace grover::service {
namespace {

Request appRequest(const std::string& id) {
  Request r;
  r.appId = id;
  return r;
}

TEST(ServiceConcurrency, OneCompilePerUniqueKeyUnderContention) {
  const std::vector<std::string> keySet = {"NVD-MT", "AMD-MT", "AMD-SS"};
  constexpr unsigned kThreads = 10;
  constexpr unsigned kItersPerThread = 24;

  CompileService service(ServiceConfig{});
  std::vector<std::vector<ArtifactPtr>> seen(kThreads);
  std::atomic<bool> go{false};
  std::atomic<unsigned> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (unsigned i = 0; i < kItersPerThread; ++i) {
        const std::string& id = keySet[(t + i) % keySet.size()];
        try {
          seen[t].push_back(service.run(appRequest(id)));
        } catch (const GroverError&) {
          ++failures;
        }
      }
    });
  }
  go = true;
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0u);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, keySet.size())
      << "every unique key must compile exactly once";
  EXPECT_EQ(s.requests, kThreads * kItersPerThread);
  // Every request was served by exactly one of: leading a compile,
  // coalescing onto an in-flight one, or a cache hit.
  EXPECT_EQ(s.misses + s.coalesced + s.memoryHits, s.requests);
  EXPECT_EQ(s.misses, keySet.size());

  // All observers of one key see identical module text.
  std::map<std::string, std::string> canonical;
  for (unsigned t = 0; t < kThreads; ++t) {
    unsigned i = 0;
    for (const ArtifactPtr& a : seen[t]) {
      const std::string& id = keySet[(t + i++) % keySet.size()];
      ASSERT_NE(a, nullptr);
      EXPECT_TRUE(a->ok);
      auto [it, inserted] = canonical.emplace(id, a->transformedText);
      if (!inserted) {
        EXPECT_EQ(a->transformedText, it->second)
            << "waiters observed divergent module text for " << id;
      }
    }
  }
  EXPECT_EQ(canonical.size(), keySet.size());
}

TEST(ServiceConcurrency, ConcurrentIdenticalSubmitsShareOneCompilation) {
  constexpr unsigned kWaiters = 16;
  CompileService service(ServiceConfig{});
  std::vector<CompileService::Future> futures;
  futures.reserve(kWaiters);
  for (unsigned i = 0; i < kWaiters; ++i) {
    futures.push_back(service.submit(appRequest("PAB-ST")));
  }
  std::vector<ArtifactPtr> results;
  for (auto& f : futures) results.push_back(f.get());
  for (const ArtifactPtr& a : results) {
    ASSERT_NE(a, nullptr);
    EXPECT_TRUE(a->ok);
    EXPECT_EQ(a->transformedText, results.front()->transformedText);
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.coalesced + s.memoryHits, kWaiters - 1);
}

TEST(ServiceConcurrency, ConcurrentAutoRequestsAgreeOnFeatureKeys) {
  // Cold service, policy-routed requests racing on three keys: the
  // feature-key memo must hand every caller of one key the same policy
  // key and variant, and single-flight must still compile each key once.
  const std::vector<std::string> keySet = {"NVD-MT", "AMD-MT", "AMD-SS"};
  constexpr unsigned kThreads = 8;
  constexpr unsigned kItersPerThread = 6;
  constexpr unsigned kCalls = kThreads * kItersPerThread;

  ServiceConfig config;
  config.workers = 2;
  CompileService service(config);
  std::vector<std::vector<AutoResult>> seen(kThreads);
  std::atomic<bool> go{false};
  std::atomic<unsigned> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (unsigned i = 0; i < kItersPerThread; ++i) {
        Request r = appRequest(keySet[(t + i) % keySet.size()]);
        r.platform = "SNB";
        r.scale = apps::Scale::Test;
        try {
          seen[t].push_back(service.compileAuto(std::move(r)));
        } catch (const GroverError&) {
          ++failures;
        }
      }
    });
  }
  go = true;
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0u);
  std::map<std::string, const AutoResult*> canonical;
  for (unsigned t = 0; t < kThreads; ++t) {
    unsigned i = 0;
    for (const AutoResult& r : seen[t]) {
      const std::string& id = keySet[(t + i++) % keySet.size()];
      ASSERT_TRUE(r.eligible) << id;
      ASSERT_TRUE(r.artifact->ok) << id;
      const auto [it, inserted] = canonical.emplace(id, &r);
      if (inserted) continue;
      EXPECT_EQ(r.policyKey, it->second->policyKey) << id;
      EXPECT_EQ(r.decision.variant, it->second->decision.variant) << id;
      EXPECT_EQ(r.servedText(), it->second->servedText()) << id;
    }
  }
  EXPECT_EQ(canonical.size(), keySet.size());

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, keySet.size()) << "single-flight must still hold";
  EXPECT_EQ(s.policyHits + s.policyMisses, kCalls);
  // A thread derives each key at most once; every later call of its own
  // for that key reads the memo.
  EXPECT_GE(s.featureKeysReused, kCalls - kThreads * keySet.size());
}

TEST(ServiceConcurrency, ConcurrentColdRequestsShareMemos) {
  // Racing cold compiles of kernels that share proofs (every platform)
  // and an estimate (the NVD-MM-A/B/AB originals): whichever request
  // fills a memo entry first, every artifact must equal a sequential run.
  const std::vector<std::string> appIds = {"NVD-MM-A", "NVD-MM-B",
                                           "NVD-MM-AB"};
  const std::vector<std::string> platforms = {"SNB", "Fermi"};
  std::vector<Request> keys;
  for (const std::string& id : appIds) {
    for (const std::string& platform : platforms) {
      Request r = appRequest(id);
      r.platform = platform;
      r.scale = apps::Scale::Test;
      r.options.prove = true;
      keys.push_back(r);
    }
  }
  std::vector<ArtifactPtr> sequential;
  {
    CompileService service(ServiceConfig{});
    for (const Request& r : keys) sequential.push_back(service.run(r));
  }

  constexpr unsigned kThreads = 8;
  ServiceConfig config;
  config.workers = 4;
  CompileService service(config);
  std::vector<std::vector<ArtifactPtr>> seen(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < keys.size(); ++i) {
        seen[t].push_back(service.run(keys[(t + i) % keys.size()]));
      }
    });
  }
  go = true;
  for (std::thread& th : threads) th.join();

  for (unsigned t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::size_t k = (t + i) % keys.size();
      const Artifact& a = *seen[t][i];
      const Artifact& want = *sequential[k];
      const std::string what = keys[k].appId + " on " + keys[k].platform;
      ASSERT_TRUE(a.ok) << what;
      EXPECT_EQ(a.originalText, want.originalText) << what;
      EXPECT_EQ(a.transformedText, want.transformedText) << what;
      EXPECT_EQ(a.cyclesWithLM, want.cyclesWithLM) << what;
      EXPECT_EQ(a.cyclesWithoutLM, want.cyclesWithoutLM) << what;
      EXPECT_EQ(a.outcome, want.outcome) << what;
      EXPECT_EQ(a.proofOriginal, want.proofOriginal) << what;
      EXPECT_EQ(a.proofTransformed, want.proofTransformed) << what;
      EXPECT_EQ(a.proofNote, want.proofNote) << what;
      EXPECT_EQ(a.proofVetoed, want.proofVetoed) << what;
    }
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, keys.size()) << "single-flight must still hold";
  EXPECT_EQ(s.proofsRun + s.proofsReused, 2 * keys.size());
  EXPECT_EQ(s.proofsProved + s.proofsRefuted + s.proofsUnknown, s.proofsRun);
}

TEST(ServiceConcurrency, ConcurrentPlatformsMatchASequentialRun) {
  // Every platform is served after the AMD-MT requests. Six NVD-MT
  // requests, one per platform, then compile at once: each may execute
  // its kernels itself or reuse what another has published, and every
  // answer equals a sequential run's. Each kernel's first execution
  // prices one platform, so at most 4 of its 6 estimates are reused.
  std::vector<Request> keys;
  for (const perf::PlatformSpec& platform : perf::allPlatforms()) {
    Request r = appRequest("NVD-MT");
    r.platform = platform.name;
    r.scale = apps::Scale::Test;
    r.options.prove = true;
    keys.push_back(r);
  }
  std::vector<ArtifactPtr> sequential;
  {
    CompileService service(ServiceConfig{});
    for (const Request& r : keys) sequential.push_back(service.run(r));
  }

  ServiceConfig config;
  config.workers = keys.size();
  CompileService service(config);
  for (const Request& r : keys) {
    Request amd = r;
    amd.appId = "AMD-MT";
    ASSERT_TRUE(service.run(amd)->ok);
  }
  const std::uint64_t before = service.stats().estimatesReused;

  std::vector<ArtifactPtr> seen(keys.size());
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(keys.size());
  for (std::size_t t = 0; t < keys.size(); ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      seen[t] = service.run(keys[t]);
    });
  }
  go = true;
  for (std::thread& th : threads) th.join();

  EXPECT_LE(service.stats().estimatesReused - before, 2u * 4u);
  EXPECT_EQ(service.stats().compiles, 2 * keys.size());
  for (std::size_t t = 0; t < keys.size(); ++t) {
    const Artifact& a = *seen[t];
    const Artifact& want = *sequential[t];
    const std::string& what = keys[t].platform;
    ASSERT_TRUE(a.ok) << what;
    EXPECT_EQ(a.originalText, want.originalText) << what;
    EXPECT_EQ(a.transformedText, want.transformedText) << what;
    EXPECT_EQ(a.cyclesWithLM, want.cyclesWithLM) << what;
    EXPECT_EQ(a.cyclesWithoutLM, want.cyclesWithoutLM) << what;
    EXPECT_EQ(a.normalized, want.normalized) << what;
    EXPECT_EQ(a.outcome, want.outcome) << what;
    EXPECT_EQ(a.proofOriginal, want.proofOriginal) << what;
    EXPECT_EQ(a.proofTransformed, want.proofTransformed) << what;
    EXPECT_EQ(a.proofNote, want.proofNote) << what;
    EXPECT_EQ(a.proofVetoed, want.proofVetoed) << what;
  }
}

TEST(ServiceConcurrency, RestartedServiceAgreesUnderConcurrency) {
  // Fill both disk tiers, then race compileAuto() and run() over the same
  // keys on a fresh service: the auto probes and the plain requests may
  // load one file at once, and every result must still equal the
  // sequential one, with nothing compiled.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("grover_svc_restart_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  std::vector<Request> keys;
  for (const std::string id : {"NVD-MM-A", "NVD-MM-B", "NVD-MM-AB"}) {
    for (const std::string platform : {"SNB", "Fermi"}) {
      Request r = appRequest(id);
      r.platform = platform;
      r.scale = apps::Scale::Test;
      r.options.prove = true;
      keys.push_back(r);
    }
  }
  ServiceConfig config;
  config.workers = 4;
  config.cache.diskDir = (dir / "cache").string();
  config.policyStore.diskDir = (dir / "policy").string();
  std::vector<AutoResult> sequential;
  {
    CompileService fill(config);
    for (const Request& r : keys) {
      sequential.push_back(fill.compileAuto(r));
      ASSERT_TRUE(sequential.back().artifact->ok);
      ASSERT_TRUE(sequential.back().artifact->hasEstimate);
    }
  }

  constexpr unsigned kThreads = 8;
  CompileService service(config);
  std::vector<std::vector<AutoResult>> autos(kThreads);
  std::vector<std::vector<ArtifactPtr>> plains(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const Request& r = keys[(t + i) % keys.size()];
        if ((t + i) % 2 == 0) {
          autos[t].push_back(service.compileAuto(r));
        } else {
          plains[t].push_back(service.run(r));
        }
      }
    });
  }
  go = true;
  for (std::thread& th : threads) th.join();

  const auto expectSame = [](const Artifact& a, const Artifact& want,
                             const std::string& what) {
    ASSERT_TRUE(a.ok) << what;
    EXPECT_EQ(a.originalText, want.originalText) << what;
    EXPECT_EQ(a.transformedText, want.transformedText) << what;
    EXPECT_EQ(a.cyclesWithLM, want.cyclesWithLM) << what;
    EXPECT_EQ(a.cyclesWithoutLM, want.cyclesWithoutLM) << what;
    EXPECT_EQ(a.outcome, want.outcome) << what;
    EXPECT_EQ(a.proofOriginal, want.proofOriginal) << what;
    EXPECT_EQ(a.proofTransformed, want.proofTransformed) << what;
    EXPECT_EQ(a.proofNote, want.proofNote) << what;
    EXPECT_EQ(a.proofVetoed, want.proofVetoed) << what;
    EXPECT_EQ(a.policyKey, want.policyKey) << what;
  };
  std::size_t autoCalls = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    std::size_t a = 0, p = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::size_t k = (t + i) % keys.size();
      const AutoResult& want = sequential[k];
      const std::string what = keys[k].appId + " on " + keys[k].platform;
      if ((t + i) % 2 == 0) {
        const AutoResult& got = autos[t][a++];
        ++autoCalls;
        EXPECT_TRUE(got.policyHit) << what;
        EXPECT_EQ(got.policyKey, want.policyKey) << what;
        EXPECT_EQ(got.decision.variant, want.decision.variant) << what;
        EXPECT_EQ(got.servedText(), want.servedText()) << what;
        expectSame(*got.artifact, *want.artifact, what);
      } else {
        expectSame(*plains[t][p++], *want.artifact, what);
      }
    }
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, 0u);
  EXPECT_EQ(s.policyHits, autoCalls);
  EXPECT_EQ(s.policyMisses, 0u);
  EXPECT_EQ(s.diskLoadFailures, 0u);
  fs::remove_all(dir);
}

TEST(ServiceConcurrency, MemoryAnswersRaceColdCompilesAndFeedback) {
  // Reader threads take memory-only answers on primed keys while another
  // thread compiles cold keys and another folds measurements that flip
  // one primed key's decision back and forth.
  const auto autoRequest = [](const std::string& id,
                              const std::string& platform) {
    Request r = appRequest(id);
    r.platform = platform;
    r.scale = apps::Scale::Test;
    return r;
  };
  const std::vector<Request> stable = {autoRequest("NVD-MT", "SNB"),
                                       autoRequest("AMD-SS", "SNB")};
  const Request flipped = autoRequest("AMD-MT", "SNB");
  const std::vector<Request> cold = {autoRequest("NVD-MT", "Fermi"),
                                     autoRequest("AMD-SS", "Fermi"),
                                     autoRequest("AMD-MT", "Fermi")};
  const std::vector<double> measured = {0.5, 0.5, 2.0, 2.0, 2.0, 0.5,
                                        0.5, 0.5, 2.0, 2.0, 2.0, 0.5};
  // Every key warm in memory, and `flipped`'s decision already flagged as
  // a mismatch: no measurement then triggers a refresh, so each one is a
  // single store and every state a reader can see is one a sequential
  // run reaches.
  const auto prime = [&](CompileService& svc) {
    for (const Request& r : stable) {
      EXPECT_TRUE(svc.compileAuto(r).eligible);
      EXPECT_TRUE(svc.run(r)->ok);
    }
    const std::uint64_t key = svc.compileAuto(flipped).policyKey;
    EXPECT_TRUE(svc.run(flipped)->ok);
    policy::Decision d = *svc.policyStore().lookup(key);
    d.mismatch = true;
    svc.policyStore().store(key, d);
    return key;
  };
  const auto sameDecision = [](const policy::Decision& a,
                               const policy::Decision& b) {
    return a.variant == b.variant && a.predictedNp == b.predictedNp &&
           a.predictedOutcome == b.predictedOutcome && a.proof == b.proof &&
           a.confidence == b.confidence && a.source == b.source &&
           a.ewmaNp == b.ewmaNp && a.observations == b.observations &&
           a.mismatch == b.mismatch;
  };

  // The sequential run: compileAuto() after each measurement.
  CompileService sequential(ServiceConfig{});
  const std::uint64_t flippedKey = prime(sequential);
  std::vector<AutoResult> stableWant;
  for (const Request& r : stable) {
    stableWant.push_back(sequential.compileAuto(r));
  }
  const ArtifactPtr flippedFull = sequential.run(flipped);
  std::vector<policy::Decision> trajectory = {
      sequential.compileAuto(flipped).decision};
  for (const double np : measured) {
    (void)sequential.recordMeasurement(flippedKey, np);
    trajectory.push_back(sequential.compileAuto(flipped).decision);
  }
  ASSERT_EQ(sequential.stats().policyRefreshes, 0u);
  std::size_t flips = 0;
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    if (trajectory[i].variant != trajectory[i - 1].variant) ++flips;
  }
  ASSERT_GE(flips, 2u) << "the measurements must flip the decision";

  ServiceConfig config;
  config.workers = 2;
  CompileService service(config);
  ASSERT_EQ(prime(service), flippedKey);
  const ServiceStats before = service.stats();

  constexpr unsigned kReaders = 3;
  constexpr unsigned kMinRounds = 50;
  std::atomic<bool> go{false};
  std::atomic<bool> writersDone{false};
  std::atomic<std::uint64_t> autoAnswers{0};
  std::atomic<std::uint64_t> plainAnswers{0};
  std::vector<std::vector<std::string>> errors(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (unsigned t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      const auto fail = [&](const std::string& what) {
        if (errors[t].size() < 5) errors[t].push_back(what);
      };
      while (!go.load()) std::this_thread::yield();
      std::uint64_t lastStep = 0;
      for (unsigned round = 0; round < kMinRounds || !writersDone.load();
           ++round) {
        for (std::size_t k = 0; k < stable.size(); ++k) {
          const std::string& id = stable[k].appId;
          const std::optional<AutoResult> a =
              service.answerAutoFromMemory(stable[k]);
          const ArtifactPtr p = service.answerFromMemory(stable[k]);
          if (!a.has_value() || p == nullptr) {
            fail(id + ": declined");
            continue;
          }
          autoAnswers.fetch_add(1);
          plainAnswers.fetch_add(1);
          if (a->servedText() != stableWant[k].servedText() ||
              !sameDecision(a->decision, stableWant[k].decision)) {
            fail(id + ": auto answer differs from the sequential run");
          }
          if (p->transformedText != a->artifact->transformedText) {
            fail(id + ": plain answer differs from the auto answer");
          }
        }
        const std::optional<AutoResult> f =
            service.answerAutoFromMemory(flipped);
        if (!f.has_value()) {
          fail("AMD-MT: declined");
          continue;
        }
        autoAnswers.fetch_add(1);
        // The decision after `step` measurements, never an older one.
        const std::uint64_t step = f->decision.observations;
        if (step >= trajectory.size() || step < lastStep) {
          fail("AMD-MT: observation " + std::to_string(step) + " after " +
               std::to_string(lastStep));
          continue;
        }
        lastStep = step;
        if (!sameDecision(f->decision, trajectory[step])) {
          fail("AMD-MT: decision differs from the sequential run's after " +
               std::to_string(step) + " measurements");
        }
        const std::string& want =
            f->decision.variant == policy::Variant::Transformed
                ? flippedFull->transformedText
                : flippedFull->originalText;
        if (f->servedText() != want) fail("AMD-MT: served text differs");
      }
    });
  }
  std::thread compiler([&] {
    while (!go.load()) std::this_thread::yield();
    for (const Request& r : cold) {
      if (!service.compileAuto(r).eligible) ADD_FAILURE() << r.appId;
    }
  });
  std::thread feedback([&] {
    while (!go.load()) std::this_thread::yield();
    for (const double np : measured) {
      (void)service.recordMeasurement(flippedKey, np);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  go = true;
  compiler.join();
  feedback.join();
  writersDone = true;
  for (std::thread& th : readers) th.join();

  for (unsigned t = 0; t < kReaders; ++t) {
    for (const std::string& e : errors[t]) ADD_FAILURE() << e;
  }
  // Each answer moved exactly what its blocking twin moves.
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.policyHits - before.policyHits, autoAnswers.load());
  EXPECT_EQ(s.featureKeysReused - before.featureKeysReused,
            autoAnswers.load());
  EXPECT_EQ(s.memoryHits - before.memoryHits, plainAnswers.load());
  EXPECT_EQ(s.requests - before.requests, plainAnswers.load() + cold.size());
  EXPECT_EQ(s.policyMisses - before.policyMisses, cold.size());
  EXPECT_EQ(s.compiles - before.compiles, cold.size());
  EXPECT_EQ(s.policyRefreshes, 0u);
  EXPECT_TRUE(sameDecision(service.compileAuto(flipped).decision,
                           trajectory.back()));
}

TEST(ServiceConcurrency, BoundedQueueAppliesBackPressure) {
  ServiceConfig config;
  config.workers = 2;
  config.maxQueue = 2;
  CompileService service(config);
  // More unique keys than queue slots: submit() must block rather than
  // reject, and everything must still complete.
  const std::vector<std::string> ids = {"NVD-MT",   "AMD-MT", "AMD-SS",
                                        "AMD-RG",   "PAB-ST", "ROD-SC",
                                        "NVD-NBody"};
  std::vector<CompileService::Future> futures;
  for (const std::string& id : ids) {
    futures.push_back(service.submit(appRequest(id)));
  }
  for (auto& f : futures) {
    const ArtifactPtr a = f.get();
    ASSERT_NE(a, nullptr);
    EXPECT_TRUE(a->ok);
  }
  EXPECT_EQ(service.stats().compiles, ids.size());
}

TEST(ServiceShutdown, DrainsAndRejectsNewWork) {
  CompileService service(ServiceConfig{});
  auto f = service.submit(appRequest("NVD-MT"));
  service.shutdown();
  // The in-flight request completed during shutdown's drain.
  EXPECT_TRUE(f.get()->ok);
  EXPECT_THROW((void)service.submit(appRequest("NVD-MT")), GroverError);
  service.shutdown();  // idempotent
}

TEST(RecordStoreConcurrency, MixedTierCallsKeepBudgetAndCounts) {
  // Eight threads mix get/put/load/store over six overlapping keys on one
  // shard that holds a few entries. A value is 10 * key + cost - 1, so a
  // read of another key's value shows, and costs of 1-3 make overwrites
  // change the cost in use.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("grover_record_store_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  using Store = RecordStore<std::int64_t>;
  const Store::Codec codec{
      ".rec",
      "testrec 1",
      "test record",
      [](const std::int64_t& v) {
        return static_cast<std::size_t>(v % 10 + 1);
      },
      [](RecordWriter& w, const std::int64_t& v) { w.num("v", v); },
      [](RecordReader& r) { return r.num("v"); }};
  constexpr std::size_t kBudget = 5;
  constexpr unsigned kThreads = 8;
  constexpr unsigned kIters = 400;
  constexpr std::int64_t kKeys = 6;
  Store store(codec, kBudget, /*shards=*/1, dir.string());

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> gets{0}, loads{0}, maxCost{0}, wrongValues{0};
  const auto check = [&](std::uint64_t key,
                         const std::optional<std::int64_t>& v) {
    if (v && *v / 10 != static_cast<std::int64_t>(key)) ++wrongValues;
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (unsigned i = 0; i < kIters; ++i) {
        // Every call meets every key: i / 4 steps the key between rounds.
        const std::uint64_t key = (t + i + i / 4) % kKeys;
        const std::int64_t value =
            static_cast<std::int64_t>(key) * 10 + (t * 7 + i) % 3;
        switch ((t + i) % 4) {
          case 0:
            check(key, store.get(key));
            ++gets;
            break;
          case 1:
            store.put(key, value);
            break;
          case 2:
            check(key, store.load(key));
            ++loads;
            break;
          default:
            store.store(key, value);
            break;
        }
        const std::uint64_t cost = store.stats().cost;
        std::uint64_t seen = maxCost.load();
        while (cost > seen && !maxCost.compare_exchange_weak(seen, cost)) {
        }
      }
    });
  }
  go = true;
  for (std::thread& th : threads) th.join();

  const Store::Stats s = store.stats();
  EXPECT_LE(maxCost.load(), kBudget);
  EXPECT_EQ(s.hits + s.misses, gets.load());
  EXPECT_EQ(s.disk.hits + s.disk.misses, loads.load());
  EXPECT_EQ(s.disk.loadFailures, 0u) << "a reader saw a torn record";
  EXPECT_EQ(wrongValues.load(), 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.disk.hits, 0u);
  // A value that costs more than the budget evicts every entry and
  // itself, so the cost in use must come back to exactly 0.
  store.put(100, 1009);
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.stats().cost, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace grover::service
