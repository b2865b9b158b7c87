// Thread-safe compile-and-estimate service on top of grovercl
// (DESIGN.md §8): content-addressed artifact cache (memory LRU + optional
// disk tier), single-flight deduplication of concurrent identical
// requests, and an async submit API executing on support::ThreadPool with
// a bounded in-flight queue and a drain/shutdown path.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "grovercl/compiler.h"
#include "perf/measure.h"
#include "perf/platform.h"
#include "policy/decision_engine.h"
#include "policy/feedback.h"
#include "policy/policy_store.h"
#include "service/artifact_cache.h"
#include "service/cancel.h"
#include "support/thread_pool.h"

namespace grover::sym {
struct ProveOptions;
}  // namespace grover::sym

namespace grover::service {

struct ServiceConfig {
  /// Worker threads compiling requests (0 = hardware concurrency).
  unsigned workers = 0;
  /// Max requests being compiled or queued at once; submit() blocks
  /// (back-pressure) when the bound is reached.
  std::size_t maxQueue = 256;
  /// Host threads inside one perf::estimate call. Estimates are
  /// bit-identical for every value; 1 keeps concurrent requests from
  /// oversubscribing the host.
  unsigned estimateThreads = 1;
  ArtifactCache::Config cache;
  /// Decision store of the compileAuto() path; set diskDir to persist
  /// decisions across runs (groverc --policy-dir).
  policy::PolicyStore::Config policyStore;
  /// Fraction of eligible compileAuto() requests whose kernels are
  /// *executed* for real (natively when the JIT is available) and whose
  /// measured np is folded back through recordMeasurement(). 0 disables
  /// measurement; 1 measures every request. Sampling is deterministic:
  /// an accumulator fires every 1/measureRate-th eligible request.
  double measureRate = 0;
  /// Knobs of the sampled measurements (repetitions, native opt-out, …).
  /// The scale is overridden per request.
  perf::MeasureOptions measure;
  /// Capacity of the background measurement queue. 0 (the default)
  /// keeps the legacy synchronous behavior: a sampled request executes
  /// its measurement inline and the response carries the measured np.
  /// > 0 moves sampled measurements onto a dedicated low-priority
  /// thread: the response returns immediately (as fast as an unmeasured
  /// request) and the measured np folds into the decision store when the
  /// background measurement completes. A full queue drops the sample
  /// (measurementsDropped) — measurements are advisory, latency is not.
  std::size_t measureQueueDepth = 0;
  /// Confidence half-life of stored policy decisions, in milliseconds
  /// (policy::decayedConfidence). A warm hit older than one horizon
  /// whose measurements contradict its prediction (mismatch flag) is
  /// re-measured inline instead of trusted. 0 disables decay.
  std::uint64_t policyDecayHorizonMs = 0;
};

/// Cumulative counters; snapshot via CompileService::stats().
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t memoryHits = 0;    // served from the in-memory LRU
  std::uint64_t negativeHits = 0;  // of those, cached failures/diagnostics
  std::uint64_t coalesced = 0;     // joined an in-flight identical request
  std::uint64_t misses = 0;        // became the compiling leader
  std::uint64_t diskHits = 0;      // ArtifactCache::Stats::diskHits
  std::uint64_t compiles = 0;      // full pipeline executions
  std::uint64_t evictions = 0;
  std::uint64_t diskLoadFailures = 0;
  /// Stored policy decisions dropped on load: a bad checksum, header or
  /// field (PolicyStore::Stats::diskLoadFailures).
  std::uint64_t policyDiskLoadFailures = 0;
  std::uint64_t diskStores = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytesInUse = 0;
  /// Cold compiles abandoned at a stage boundary because every waiting
  /// client disconnected (nothing is cached for them).
  std::uint64_t cancelled = 0;
  // compileAuto() policy path.
  std::uint64_t policyHits = 0;    // warm decisions (loser pipeline skipped)
  std::uint64_t policyMisses = 0;  // cold: both variants compiled+estimated
  std::uint64_t policyStores = 0;  // decisions learned this run
  std::uint64_t policyFlips = 0;   // decisions flipped by feedback
  std::uint64_t policyMismatches = 0;  // predicted-vs-measured flags
  /// Requests whose feature vector and policy key came without a
  /// front-end compile: from the memo of an earlier identical request, or
  /// from the request's stored artifact (memory or disk tier).
  std::uint64_t featureKeysReused = 0;
  // Sampled real-execution measurements (config.measureRate).
  std::uint64_t measurements = 0;        // completed measurements
  std::uint64_t nativeMeasurements = 0;  // of those, ran as native code
  std::uint64_t policyRefreshes = 0;     // mismatch-triggered re-estimates
  /// Samples dropped because the background measurement queue was full.
  std::uint64_t measurementsDropped = 0;
  /// Jobs sitting in the background measurement queue right now (a
  /// depth gauge, not a cumulative counter — health frames report it).
  std::uint64_t measureQueueBacklog = 0;
  // Symbolic prover (Request::options.prove).
  std::uint64_t proofsRun = 0;      // kernels the prover executed on
  std::uint64_t proofsProved = 0;   // of those, Proved
  std::uint64_t proofsRefuted = 0;  // of those, Refuted (witness found)
  std::uint64_t proofsUnknown = 0;  // of those, Unknown (sound fallback)
  std::uint64_t proofVetoes = 0;    // transforms refused: race introduced
  /// Kernel proofs and variant estimates a cold compile took from the
  /// service's memos instead of running the prover or the estimator.
  std::uint64_t proofsReused = 0;
  std::uint64_t estimatesReused = 0;
  /// Stale contradicted policy entries re-measured past the decay
  /// horizon (ServiceConfig::policyDecayHorizonMs).
  std::uint64_t staleRemeasures = 0;
  // Cumulative per-stage wall time across all compiles, in milliseconds.
  double frontendMs = 0;   // source → SSA (×2: original + transformed)
  double groverMs = 0;     // the Grover pass
  double validateMs = 0;   // post-transform IR verification
  double printMs = 0;      // IR rendering of both versions
  double estimateMs = 0;   // trace-driven with/without-LM estimation
  double executeMs = 0;    // sampled real executions (both variants)
  double cacheMs = 0;      // artifact-cache probes/stores, memory + disk
  double proveMs = 0;      // symbolic prover runs (original + transformed)
};

/// Result of the policy-driven compileAuto() path.
struct AutoResult {
  /// The served artifact. On a warm policy hit this may be *partial*:
  /// only the winning variant's text is filled and hasEstimate is false
  /// (the whole point is skipping the loser's pipeline). Partial
  /// artifacts are never published to the artifact cache.
  ArtifactPtr artifact;
  policy::Decision decision;
  /// False when the request cannot be policy-routed (no platform to
  /// decide for, or the source fails to compile) — `artifact` is then
  /// the plain submit() result and `decision` is default.
  bool eligible = false;
  /// True when the decision came warm from the policy store.
  bool policyHit = false;
  /// Feature-store key; pass to recordMeasurement() to close the loop.
  std::uint64_t policyKey = 0;
  policy::KernelFeatures features;
  /// True when this request was sampled for a real-execution measurement
  /// (ServiceConfig::measureRate); `measurement` then holds the result
  /// and `decision` already reflects the folded-in np.
  bool measured = false;
  perf::Measurement measurement;

  /// Printed IR of the variant the decision serves.
  [[nodiscard]] const std::string& servedText() const {
    return decision.variant == policy::Variant::Transformed
               ? artifact->transformedText
               : artifact->originalText;
  }
};

class CompileService {
 public:
  using Future = std::shared_future<ArtifactPtr>;

  explicit CompileService(ServiceConfig config = {});
  ~CompileService();  // drains and shuts down

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Async entry point. Returns immediately with a ready future on a
  /// memory-cache hit, joins the in-flight future of an identical
  /// request, or schedules a compilation (blocking while the queue is
  /// full). Throws GroverError for malformed requests (unknown app or
  /// platform, estimation without an app) and after shutdown(). The
  /// future itself never throws: failures are negative artifacts.
  ///
  /// `cancel` (optional) is the caller's disconnect flag: a *cold*
  /// compile is abandoned at the next stage boundary once every waiter's
  /// token is set, the future resolves to a negative "cancelled"
  /// artifact, and nothing is cached. Warm work ignores the token.
  [[nodiscard]] Future submit(Request request, CancelToken cancel = nullptr);

  /// Blocking convenience wrapper: submit + get.
  [[nodiscard]] ArtifactPtr run(Request request,
                                CancelToken cancel = nullptr) {
    return submit(std::move(request), std::move(cancel)).get();
  }

  /// Policy-driven entry point (DESIGN.md §10). Extracts the kernel's
  /// architecture-independent features (once per distinct request; later
  /// identical requests reuse them without compiling, and so does a
  /// request whose artifact is in memory or on disk: the artifact carries
  /// them), consults the decision store keyed on (features, platform,
  /// scale), and on a warm decision compiles and serves *only* the
  /// winning variant — the losing variant's transform/print/estimate
  /// pipeline is skipped.
  /// On a cold key the request runs through the normal cached pipeline
  /// (both variants + estimates), the engine derives the verdict at the
  /// paper's 5% threshold, and the decision is persisted. Requests
  /// without a platform fall back to submit() (nothing to decide).
  /// `cancel` follows the submit() contract: only the cold pipeline
  /// honors it; warm policy-path builds run to completion.
  [[nodiscard]] AutoResult compileAuto(Request request,
                                       CancelToken cancel = nullptr);

  /// Memory-only answers (DESIGN.md §8): what submit() and compileAuto()
  /// serve for `request` when they would answer it from memory and do
  /// nothing else, moving the same counters. Otherwise they decline
  /// (null / nullopt) and move no count. They never compile, read a file
  /// or a disk tier, wait on an in-flight compile or measure inline, so
  /// groverd's event loop calls them; the blocking entry points keep
  /// their own probes. A request resolve() rejects declines too; the
  /// blocking entry points report its error.
  [[nodiscard]] ArtifactPtr answerFromMemory(const Request& request);
  /// An auto request declines unless it names a platform, its feature key
  /// is memoized, its decision is in the policy store's memory, no stale
  /// re-measure is due, its full artifact is in memory, and sampling is
  /// off or queued.
  [[nodiscard]] std::optional<AutoResult> answerAutoFromMemory(
      const Request& request);

  /// Fold a measured np for a policyKey back into the decision store
  /// (EWMA; may flip the stored decision). When the measurement newly
  /// crosses the mismatch tolerance and the key's request is known from
  /// a prior compileAuto(), the service re-runs the estimation pipeline
  /// and refreshes the decision in place instead of leaving it flagged.
  /// Returns the updated decision.
  policy::Decision recordMeasurement(std::uint64_t policyKey,
                                     double measuredNp);

  [[nodiscard]] policy::PolicyStore& policyStore() { return policy_store_; }
  [[nodiscard]] const policy::DecisionEngine& decisionEngine() const {
    return engine_;
  }

  /// Wait until every submitted request has completed. The service stays
  /// usable afterwards.
  void drain();

  /// Stop accepting new requests, then drain. Idempotent; also performed
  /// by the destructor.
  void shutdown();

  /// One consistent snapshot of every service counter, taken under a
  /// single lock — concurrent traffic can never produce a torn view
  /// (e.g. policyHits bumped but measurements not yet). The daemon's
  /// stats endpoint depends on this.
  [[nodiscard]] ServiceStats stats() const;

  /// Fill appId-derived fields and validate the request. Public so tools
  /// and tests can inspect the canonical form. Throws GroverError.
  [[nodiscard]] static Request resolve(Request request);

  /// Stable content hash of a *resolved* request — the cache key.
  [[nodiscard]] static std::uint64_t cacheKey(const Request& resolved);

 private:
  /// Service-owned counters. All of them live in one struct guarded by
  /// stats_mutex_ (never the service mutex_) so stats() can copy the
  /// whole block atomically instead of reading fields one by one.
  struct Counters {
    std::uint64_t requests = 0, memoryHits = 0, negativeHits = 0,
        coalesced = 0, misses = 0, compiles = 0, cancelled = 0;
    std::uint64_t policyHits = 0, policyMisses = 0, policyStores = 0,
        featureKeysReused = 0;
    std::uint64_t measurements = 0, nativeMeasurements = 0,
        policyRefreshes = 0, measurementsDropped = 0;
    std::uint64_t proofsRun = 0, proofsProved = 0, proofsRefuted = 0,
        proofsUnknown = 0, proofVetoes = 0, staleRemeasures = 0;
    std::uint64_t proofsReused = 0, estimatesReused = 0;
    // Cumulative per-stage wall time, nanoseconds.
    std::uint64_t frontendNs = 0, groverNs = 0, validateNs = 0,
        printNs = 0, estimateNs = 0, executeNs = 0, cacheNs = 0,
        proveNs = 0;
  };

  /// RAII stage clock: adds the elapsed nanoseconds to one Counters
  /// field on destruction.
  class StageTimer {
   public:
    StageTimer(CompileService& service, std::uint64_t Counters::*field)
        : service_(service),
          field_(field),
          start_(std::chrono::steady_clock::now()) {}
    ~StageTimer() {
      service_.bump(
          field_,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count()));
    }
    StageTimer(const StageTimer&) = delete;
    StageTimer& operator=(const StageTimer&) = delete;

   private:
    CompileService& service_;
    std::uint64_t Counters::*field_;
    std::chrono::steady_clock::time_point start_;
  };

  void bump(std::uint64_t Counters::*field, std::uint64_t delta = 1) {
    std::lock_guard lock(stats_mutex_);
    counters_.*field += delta;
  }

  /// Serve the stored decision `warm` in `out`, as every policy hit does
  /// (compileAuto() and answerAutoFromMemory()): a Refuted transform
  /// serves the original, and the confidence decays with age.
  void serveWarm(AutoResult& out, const policy::Decision& warm,
                 const perf::PlatformSpec& spec, std::uint64_t nowMs) const;

  /// The full cold pipeline. `cancel` (may be null) is polled at stage
  /// boundaries; on trigger the compile aborts by exception, caught by
  /// the submit() worker.
  [[nodiscard]] ArtifactPtr compileUncached(const Request& resolved,
                                            const CancelScope* cancel);
  /// Runs Grover on, and verifies, each kernel of `program` the request
  /// names (all when it names none); false when none matched.
  bool transformKernels(const Request& resolved, Program& program,
                        grv::GroverResult& report);

  /// The prover's verdict on one kernel: its status and report summary.
  struct Proof {
    sym::ProofStatus status = sym::ProofStatus::Unchecked;
    std::string summary;
  };
  /// Run the prover on `fn` and count the run.
  [[nodiscard]] Proof prove(ir::Function& fn, const sym::ProveOptions& opts);
  /// prove() through the proof memo, keyed by `moduleText` (the printed
  /// module holding `fn`), the kernel name and the launch geometry.
  [[nodiscard]] Proof proveMemoized(ir::Function& fn,
                                    const std::string& moduleText,
                                    const sym::ProveOptions& opts);
  /// Deterministic measurement sampling of one eligible compileAuto()
  /// result. Synchronous mode (measureQueueDepth == 0) measures inline
  /// and folds the np before returning; queue mode enqueues the sample
  /// for the background measurement thread and returns immediately.
  /// `force` bypasses the sampling accumulator and always measures
  /// inline — the stale-contradicted-decision re-measure path.
  void maybeMeasure(const Request& resolved, AutoResult& out,
                    bool force = false);
  /// Executes `resolved` for real, counts it and folds its np into
  /// `policyKey`'s decision (a failed run keeps it). `out` (may be null)
  /// receives the measurement and the folded decision.
  void measureAndFold(const Request& resolved, std::uint64_t policyKey,
                      AutoResult* out);
  /// Body of the background measurement thread.
  void measureLoop();
  void stopMeasureThread();

  ServiceConfig config_;
  ArtifactCache cache_;
  policy::PolicyStore policy_store_;
  policy::DecisionEngine engine_;
  policy::FeedbackLoop feedback_;
  ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable cv_capacity_;
  /// One in-flight compile per cache key: the shared future every
  /// coalescer joins, plus the aggregated cancellation scope they
  /// register their tokens with.
  struct Inflight {
    Future future;
    CancelScopePtr cancel;
  };
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  std::size_t pending_ = 0;
  /// Set by shutdown() under mutex_; atomic because answerFromMemory()
  /// reads it without the lock.
  std::atomic<bool> stopping_{false};
  /// Measurement sampling accumulator (guarded by mutex_): gains
  /// measureRate per eligible request, fires when it reaches 1.
  double measure_accum_ = 0;
  /// policyKey → resolved request of the last compileAuto() that used
  /// it, so a mismatch can be re-estimated (guarded by mutex_).
  std::unordered_map<std::uint64_t, Request> auto_requests_;
  /// cacheKey(resolved) → what compileAuto() derived from that request's
  /// front-end compile or read from its stored artifact (guarded by
  /// mutex_). Both are pure functions of the resolved request, so a warm
  /// hit reads them here instead of compiling. It holds no decision or
  /// artifact: every request still reads the policy store, so feedback
  /// flips, refreshes, decay and the Refuted guard apply to it. No
  /// eviction: only requests with a platform get here, resolve() accepts
  /// a platform only for a built-in app (which fixes source, kernel and
  /// onlyBuffers) and canonicalizes its name, so at most 11 apps × 6
  /// platforms × 2 scales × 2³ option bits (removeBarriers, cleanup,
  /// prove) = 1056 entries can exist.
  struct FeatureKey {
    policy::KernelFeatures features;
    std::uint64_t policyKey = 0;
  };
  std::unordered_map<std::uint64_t, FeatureKey> feature_keys_;
  /// The feature vector of a resolved request with a platform, taken from
  /// its front-end-compiled `kernel`, and the policy key it maps to.
  /// compileAuto() and compileUncached() both derive the key here.
  [[nodiscard]] static FeatureKey featureKeyOf(const Request& resolved,
                                               ir::Function& kernel);
  /// Pure results of a cold compile, keyed by the printed kernel the
  /// artifact carries (guarded by mutex_), so a kernel that several
  /// requests share is proved and estimated once per service:
  ///  - proofs_: FNV-1a of the printed module, the kernel name and the
  ///    launch geometry → the prover's verdict. The verdict does not
  ///    depend on the platform, so six platforms share one entry. Only app
  ///    requests use it; raw sources prove every time.
  ///  - estimates_: FNV-1a of the printed module, the kernel name, the
  ///    platform, the sample stride and the launch instance (NDRange,
  ///    scalar args, buffer sizes and bytes) → cycles. The NVD-MM-A/B/AB
  ///    originals print identically and share one entry per platform.
  /// Both values are deterministic, so a memo hit is bit-identical to a
  /// run, and estimateThreads stays out of the key because estimates are
  /// bit-identical for every thread count. They hold no decision or
  /// artifact: compileUncached still runs for every cache miss, and
  /// feedback, refreshes, decay and the Refuted guard see no difference.
  /// No eviction: only app kernels reach them, so at most 11 apps × 2
  /// variants × 2³ option bits × 2 scales × 6 platforms = 2112 estimates
  /// and 352 proofs (their key has no platform) can exist. They are per
  /// service, never process-wide, so one service's results cannot leak
  /// into another's.
  std::unordered_map<std::uint64_t, Proof> proofs_;
  std::unordered_map<std::uint64_t, double> estimates_;
  /// The platforms this service serves: each joins when compileUncached()
  /// starts a request that names it (guarded by mutex_). resolve()
  /// canonicalizes the name, so it holds at most the six platforms of
  /// perf::allPlatforms(). A memo miss for (kernel, P) whose kernel
  /// another platform has asked for (its estimate there is memoized)
  /// prices P and every served platform without an estimate of the
  /// kernel with one execution (perf::estimate over a list of platforms);
  /// a kernel only one platform has asked for is priced on that platform
  /// alone. Two compiles that miss at once each execute (DESIGN.md §8).
  std::vector<perf::PlatformSpec> served_platforms_;

  /// Background measurement queue (ServiceConfig::measureQueueDepth):
  /// sampled requests enqueue here and a dedicated low-priority thread
  /// executes them, so measurement never rides a request's latency path.
  struct MeasureJob {
    std::uint64_t policyKey = 0;
    Request resolved;
  };
  mutable std::mutex measure_mutex_;  // stats() reads the queue depth
  std::condition_variable measure_cv_;
  std::deque<MeasureJob> measure_queue_;  // guarded by measure_mutex_
  bool measure_stop_ = false;             // guarded by measure_mutex_
  std::thread measure_thread_;

  mutable std::mutex stats_mutex_;
  Counters counters_;  // guarded by stats_mutex_
};

}  // namespace grover::service
