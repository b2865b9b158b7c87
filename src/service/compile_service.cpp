#include "service/compile_service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <optional>
#include <variant>

#include "grovercl/compiler.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "perf/estimator.h"
#include "perf/platform.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "sym/prover.h"
#include "sym/witness_check.h"

namespace grover::service {
namespace {

ArtifactPtr negative(std::string diagnostics) {
  auto a = std::make_shared<Artifact>();
  a->ok = false;
  a->diagnostics = std::move(diagnostics);
  return a;
}

/// resolve(), or nullopt for a request it rejects: a memory-only answer
/// declines those, and the blocking entry points report the error.
std::optional<Request> resolvedOrNull(const Request& request) {
  try {
    return CompileService::resolve(request);
  } catch (const GroverError&) {
    return std::nullopt;
  }
}

/// Thrown by compileUncached at a stage boundary once every waiter of
/// the compile has disconnected; caught by the submit() worker.
struct CancelledCompile {};

std::uint64_t wallClockMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Worst-of aggregation for multi-kernel requests: one refuted kernel
/// refutes the artifact, one unknown kernel degrades it.
sym::ProofStatus worseOf(sym::ProofStatus a, sym::ProofStatus b) {
  const auto rank = [](sym::ProofStatus s) {
    switch (s) {
      case sym::ProofStatus::Refuted: return 3;
      case sym::ProofStatus::Unknown: return 2;
      case sym::ProofStatus::Proved: return 1;
      case sym::ProofStatus::Unchecked: return 0;
    }
    return 0;
  };
  return rank(a) >= rank(b) ? a : b;
}

/// Everything of a fresh launch instance an estimate reads besides the
/// kernel: the NDRange, the scalar arguments, and each buffer's size and
/// bytes.
std::uint64_t instanceFingerprint(const apps::Instance& instance) {
  Fnv1a h;
  h.update(std::uint64_t{instance.range.dims});
  for (unsigned d = 0; d < 3; ++d) {
    h.update(std::uint64_t{instance.range.global[d]});
    h.update(std::uint64_t{instance.range.local[d]});
  }
  h.update(static_cast<std::uint64_t>(instance.args.size()));
  for (const rt::KernelArg& arg : instance.args) {
    h.update(static_cast<std::uint64_t>(arg.value.index()));
    if (const auto* buffer = std::get_if<rt::Buffer*>(&arg.value)) {
      h.update(static_cast<std::uint64_t>((*buffer)->size()));
      h.updateBytes((*buffer)->data(), (*buffer)->size());
    } else if (const auto* i = std::get_if<std::int64_t>(&arg.value)) {
      h.update(static_cast<std::uint64_t>(*i));
    } else {
      h.update(std::bit_cast<std::uint64_t>(std::get<double>(arg.value)));
    }
  }
  return h.digest();
}

/// Front-end compile of a policy-routed request into `program`. Returns
/// null on success, else the negative artifact to serve.
ArtifactPtr frontEnd(const Request& resolved, Program& program) {
  DiagnosticEngine diags;
  program = compileWithDiags(resolved.source, diags);
  if (program.module == nullptr || diags.hasErrors()) {
    return negative(diags.hasErrors() ? diags.str()
                                      : "compilation produced no module");
  }
  if (program.kernel(resolved.kernelName) == nullptr) {
    return negative("kernel '" + resolved.kernelName + "' not found");
  }
  return nullptr;
}

}  // namespace

CompileService::CompileService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache),
      policy_store_(config_.policyStore),
      engine_(),
      feedback_(policy_store_),
      pool_(config_.workers) {
  if (config_.measureRate > 0 && config_.measureQueueDepth > 0) {
    measure_thread_ = std::thread([this] { measureLoop(); });
  }
}

CompileService::~CompileService() { shutdown(); }

Request CompileService::resolve(Request request) {
  if (!request.appId.empty()) {
    const apps::Application& app = apps::applicationById(request.appId);
    request.source = app.source();
    request.kernelName = app.kernelName();
    request.options.onlyBuffers = app.buffersToDisable();
  }
  if (!request.platform.empty()) {
    if (request.appId.empty()) {
      throw GroverError(
          "estimation requires a built-in app id (the app provides the "
          "dataset)");
    }
    const std::optional<perf::PlatformSpec> spec =
        perf::findPlatform(request.platform);
    if (!spec) {
      throw GroverError("unknown platform '" + request.platform + "'");
    }
    // findPlatform ignores case and cacheKey() does not: one spelling per
    // platform keeps "snb" and "SNB" on one cache entry.
    request.platform = spec->name;
  }
  return request;
}

std::uint64_t CompileService::cacheKey(const Request& resolved) {
  Fnv1a h;
  h.update(std::string_view("groverc-artifact-key-v2"));
  h.update(std::string_view(resolved.source));
  h.update(std::string_view(resolved.kernelName));
  h.update(static_cast<std::uint64_t>(resolved.options.onlyBuffers.size()));
  for (const std::string& b : resolved.options.onlyBuffers) {
    h.update(std::string_view(b));  // std::set iterates in sorted order
  }
  h.update(resolved.options.removeBarriers);
  h.update(resolved.options.cleanup);
  h.update(resolved.options.prove);
  h.update(std::string_view(resolved.platform));
  h.update(static_cast<std::uint64_t>(resolved.scale));
  return h.digest();
}

CompileService::Future CompileService::submit(Request request,
                                              CancelToken cancel) {
  Request resolved = resolve(std::move(request));
  const std::uint64_t key = cacheKey(resolved);
  bump(&Counters::requests);

  std::unique_lock lock(mutex_);
  for (;;) {
    if (stopping_) {
      throw GroverError("compile service is shut down");
    }
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      bump(&Counters::coalesced);
      // Joining an in-flight compile keeps it alive until *this* waiter
      // also cancels: the scope is the union of every joiner's token.
      it->second.cancel->addWaiter(std::move(cancel));
      return it->second.future;
    }
    // Memory probe under the service lock: the leader publishes to the
    // cache *before* leaving inflight_, so this order can never miss a
    // finished compilation (single-flight guarantee).
    {
      StageTimer timer(*this, &Counters::cacheNs);
      if (ArtifactPtr hit = cache_.get(key)) {
        bump(&Counters::memoryHits);
        if (!hit->ok) bump(&Counters::negativeHits);
        std::promise<ArtifactPtr> ready;
        ready.set_value(std::move(hit));
        return ready.get_future().share();
      }
    }
    if (pending_ < config_.maxQueue) break;
    cv_capacity_.wait(lock);
  }

  bump(&Counters::misses);
  ++pending_;
  auto promise = std::make_shared<std::promise<ArtifactPtr>>();
  Future future = promise->get_future().share();
  auto scope = std::make_shared<CancelScope>();
  scope->addWaiter(std::move(cancel));
  inflight_.emplace(key, Inflight{future, scope});
  lock.unlock();

  pool_.submit([this, key, promise, scope,
                resolved = std::move(resolved)]() mutable {
    // Publish to the cache and leave the in-flight map BEFORE completing
    // the future: anyone who observes the future done will find the
    // artifact in the cache, never a stale in-flight entry.
    ArtifactPtr artifact;
    bool wasCancelled = false;
    try {
      if (scope->cancelled()) throw CancelledCompile{};
      std::optional<StageTimer> timer(std::in_place, *this,
                                      &Counters::cacheNs);
      artifact = cache_.loadOrBuild(key, [&] {
        timer.reset();  // the compile is not cache time
        ArtifactPtr built = compileUncached(resolved, scope.get());
        timer.emplace(*this, &Counters::cacheNs);
        return built;
      });
    } catch (const CancelledCompile&) {
      // Every waiter disconnected: stop burning CPU. Nothing — not even
      // a negative entry — is cached; the next identical request starts
      // a fresh compile.
      wasCancelled = true;
      artifact =
          negative("cancelled: every client disconnected mid-compile");
    } catch (const std::exception& e) {
      artifact = negative(std::string("internal error: ") + e.what());
      cache_.put(key, artifact);
    } catch (...) {
      artifact = negative("internal error");
      cache_.put(key, artifact);
    }
    {
      std::lock_guard relock(mutex_);
      inflight_.erase(key);
      --pending_;
    }
    // The cancelled counter bumps only after the in-flight entry is
    // gone, so a caller that observed it never joins the doomed future.
    if (wasCancelled) bump(&Counters::cancelled);
    cv_capacity_.notify_all();
    promise->set_value(artifact);
  });
  return future;
}

AutoResult CompileService::compileAuto(Request request, CancelToken cancel) {
  Request resolved = resolve(std::move(request));
  AutoResult out;
  if (resolved.platform.empty()) {
    // Nothing to decide without a platform; serve the normal path.
    out.artifact = run(resolved, std::move(cancel));
    return out;
  }
  const perf::PlatformSpec spec = *perf::findPlatform(resolved.platform);
  const std::uint64_t key = cacheKey(resolved);

  // The feature vector the decision is keyed on comes from a front-end
  // compile (~0.5 ms), so it is derived once per distinct request and
  // memoized. A stored artifact carries it too: on a memo miss the
  // artifact tiers are probed first, and a restarted service reads the
  // key from disk instead of compiling. `program` stays empty unless the
  // front end ran, until a warm decision without a cached full artifact
  // needs a module to build the winner.
  Program program;
  bool memoHit = false;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = feature_keys_.find(key); it != feature_keys_.end()) {
      out.features = it->second.features;
      out.policyKey = it->second.policyKey;
      memoHit = true;
    }
  }
  if (memoHit) {
    bump(&Counters::featureKeysReused);
  } else {
    ArtifactPtr stored;
    {
      StageTimer timer(*this, &Counters::cacheNs);
      stored = cache_.lookup(key);
    }
    if (stored != nullptr && stored->hasFeatures) {
      out.features = stored->features;
      out.policyKey = stored->policyKey;
      bump(&Counters::featureKeysReused);
    } else {
      if (ArtifactPtr failed = frontEnd(resolved, program)) {
        out.artifact = std::move(failed);
        return out;
      }
      const FeatureKey derived =
          featureKeyOf(resolved, *program.kernel(resolved.kernelName));
      out.features = derived.features;
      out.policyKey = derived.policyKey;
    }
    std::lock_guard lock(mutex_);
    feature_keys_.try_emplace(key, FeatureKey{out.features, out.policyKey});
  }
  out.eligible = true;

  if (std::optional<policy::Decision> warm =
          policy_store_.lookup(out.policyKey);
      warm.has_value()) {
    bump(&Counters::policyHits);
    const std::uint64_t now = wallClockMs();
    serveWarm(out, *warm, spec, now);
    // A stale entry whose measurements contradict its prediction is
    // re-measured inline instead of trusted for another horizon.
    const bool remeasure = policy::shouldRemeasure(
        *warm, now, config_.policyDecayHorizonMs);
    if (remeasure) bump(&Counters::staleRemeasures);
    // A full artifact may already be cached for this exact request —
    // serving it is free and strictly more informative.
    {
      StageTimer timer(*this, &Counters::cacheNs);
      out.artifact = cache_.get(key);
    }
    if (out.artifact != nullptr) {
      maybeMeasure(resolved, out, remeasure);
      return out;
    }
    // Warm fast path: build only the winning variant from one front-end
    // compile — the one that derived the features on a memo miss. No
    // Grover/print for the losing variant, and no estimation at all.
    if (program.module == nullptr) {
      if (ArtifactPtr failed = frontEnd(resolved, program)) {
        out.artifact = std::move(failed);
        return out;
      }
    }
    auto artifact = std::make_shared<Artifact>();
    // The served variant: serveWarm's Refuted guard may have overruled the
    // stored one.
    if (out.decision.variant == policy::Variant::Transformed) {
      transformKernels(resolved, program, artifact->report);
      artifact->transformedText = ir::printModule(*program.module);
    } else {
      StageTimer timer(*this, &Counters::printNs);
      artifact->originalText = ir::printModule(*program.module);
    }
    artifact->ok = true;
    // The warm path deliberately does not re-prove: proof status was
    // settled when the decision was learned and rides in decision.proof,
    // so a --prove warm hit costs exactly what an unproved one does.
    // Deliberately NOT cache_.put(): the artifact is partial (one
    // variant, no estimate) and must not shadow full artifacts.
    out.artifact = std::move(artifact);
    maybeMeasure(resolved, out, remeasure);
    return out;
  }

  bump(&Counters::policyMisses);
  // Cold: full both-variant pipeline through the cached, single-flight
  // path, then learn the decision from the estimates. This is the only
  // policy-path leg that honors the cancel token — the warm builds
  // above always complete (their artifact is what keeps serving warm).
  out.artifact = run(resolved, std::move(cancel));
  if (out.artifact->ok && out.artifact->hasEstimate) {
    out.decision = engine_.decide(
        out.features, spec,
        policy::EstimatePair{out.artifact->cyclesWithLM,
                             out.artifact->cyclesWithoutLM});
    out.decision.proof = out.artifact->proofTransformed;
    if (out.artifact->proofVetoed) {
      // The transform introduced a provable race: automatic Loss and the
      // original is served, regardless of what np predicted. Full
      // confidence — a proof does not decay like an estimate does.
      out.decision.variant = policy::Variant::Original;
      out.decision.predictedOutcome = perf::Outcome::Loss;
      out.decision.confidence = 1.0;
      out.decision.source = "proof";
    }
    policy_store_.store(out.policyKey, out.decision);
    bump(&Counters::policyStores);
  }
  maybeMeasure(resolved, out);
  return out;
}

ArtifactPtr CompileService::answerFromMemory(const Request& request) {
  // After shutdown() submit() throws, so nothing is answered.
  if (stopping_.load()) return nullptr;
  const std::optional<Request> resolved = resolvedOrNull(request);
  if (!resolved) return nullptr;
  ArtifactPtr hit;
  {
    StageTimer timer(*this, &Counters::cacheNs);
    hit = cache_.get(cacheKey(*resolved));
  }
  if (hit == nullptr) return nullptr;
  bump(&Counters::requests);
  bump(&Counters::memoryHits);
  if (!hit->ok) bump(&Counters::negativeHits);
  return hit;
}

std::optional<AutoResult> CompileService::answerAutoFromMemory(
    const Request& request) {
  const std::optional<Request> resolved = resolvedOrNull(request);
  // Without a platform there is no decision to serve; the pool path
  // serves submit()'s answer. Synchronous sampling may measure inline.
  if (!resolved || resolved->platform.empty() ||
      (config_.measureRate > 0 && config_.measureQueueDepth == 0)) {
    return std::nullopt;
  }
  const std::uint64_t key = cacheKey(*resolved);
  AutoResult out;
  {
    std::lock_guard lock(mutex_);
    const auto it = feature_keys_.find(key);
    if (it == feature_keys_.end()) return std::nullopt;
    out.features = it->second.features;
    out.policyKey = it->second.policyKey;
  }
  const std::optional<policy::Decision> warm =
      policy_store_.lookupMemory(out.policyKey);
  if (!warm.has_value()) return std::nullopt;
  const std::uint64_t now = wallClockMs();
  if (policy::shouldRemeasure(*warm, now, config_.policyDecayHorizonMs)) {
    return std::nullopt;
  }
  {
    StageTimer timer(*this, &Counters::cacheNs);
    out.artifact = cache_.get(key);
  }
  if (out.artifact == nullptr) return std::nullopt;
  bump(&Counters::featureKeysReused);
  bump(&Counters::policyHits);
  out.eligible = true;
  serveWarm(out, *warm, *perf::findPlatform(resolved->platform), now);
  maybeMeasure(*resolved, out);
  return out;
}

void CompileService::serveWarm(AutoResult& out, const policy::Decision& warm,
                               const perf::PlatformSpec& spec,
                               std::uint64_t nowMs) const {
  out.policyHit = true;
  out.decision = warm;
  // A decision whose transform was Refuted can never serve the
  // transformed variant, whatever the stored bytes claim (defense
  // against hand-edited or corrupted policy directories).
  if (out.decision.proof == sym::ProofStatus::Refuted) {
    out.decision.variant = policy::Variant::Original;
    out.decision.predictedOutcome = perf::Outcome::Loss;
  }
  // Age-decay the stored confidence toward the feature-prior floor.
  out.decision.confidence = policy::decayedConfidence(
      out.decision, engine_.prior(out.features, spec).confidence, nowMs,
      config_.policyDecayHorizonMs);
}

void CompileService::maybeMeasure(const Request& resolved, AutoResult& out,
                                  bool force) {
  if (!out.eligible || out.artifact == nullptr || !out.artifact->ok) return;
  {
    std::lock_guard lock(mutex_);
    // Remember the request even when this one isn't sampled: a later
    // recordMeasurement() mismatch needs it to re-run the pipeline.
    auto_requests_[out.policyKey] = resolved;
    if (!force) {
      if (config_.measureRate <= 0) return;
      measure_accum_ += std::min(config_.measureRate, 1.0);
      if (measure_accum_ < 1.0) return;
      measure_accum_ -= 1.0;
    }
  }

  // Forced re-measures (stale contradicted decisions) always run inline:
  // the point is that the entry must not be served unexamined again, so
  // the fold has to land before this response does.
  if (!force && config_.measureQueueDepth > 0) {
    // Background mode: hand the sample to the measurement thread and
    // answer now. The response reflects the pre-measurement decision;
    // the fold (and any mismatch-triggered refresh) happens off-path.
    bool dropped = false;
    {
      std::lock_guard lock(measure_mutex_);
      if (measure_stop_) return;
      if (measure_queue_.size() >= config_.measureQueueDepth) {
        dropped = true;
      } else {
        measure_queue_.push_back({out.policyKey, resolved});
      }
    }
    if (dropped) {
      bump(&Counters::measurementsDropped);
    } else {
      measure_cv_.notify_one();
    }
    return;
  }

  measureAndFold(resolved, out.policyKey, &out);
}

void CompileService::measureAndFold(const Request& resolved,
                                    std::uint64_t policyKey,
                                    AutoResult* out) {
  perf::MeasureOptions opts = config_.measure;
  opts.scale = resolved.scale;
  perf::Measurement m;
  {
    StageTimer timer(*this, &Counters::executeNs);
    m = perf::measure(apps::applicationById(resolved.appId), opts);
  }
  if (!m.ok) return;  // execution failure: keep the estimate-based decision
  bump(&Counters::measurements);
  if (m.usedNative) bump(&Counters::nativeMeasurements);
  // recordMeasurement absorbs a shutdown racing the refresh internally.
  const policy::Decision folded = recordMeasurement(policyKey, m.measuredNp);
  if (out == nullptr) return;
  out->decision = folded;
  out->measured = true;
  out->measurement = std::move(m);
}

void CompileService::measureLoop() {
  for (;;) {
    MeasureJob job;
    {
      std::unique_lock lock(measure_mutex_);
      measure_cv_.wait(lock, [this] {
        return measure_stop_ || !measure_queue_.empty();
      });
      // Backlog is discarded on stop: measurements are advisory and a
      // draining daemon should not execute kernels for nobody.
      if (measure_stop_) return;
      job = std::move(measure_queue_.front());
      measure_queue_.pop_front();
    }
    measureAndFold(job.resolved, job.policyKey, nullptr);
  }
}

void CompileService::stopMeasureThread() {
  {
    std::lock_guard lock(measure_mutex_);
    measure_stop_ = true;
  }
  measure_cv_.notify_all();
  if (measure_thread_.joinable()) measure_thread_.join();
}

policy::Decision CompileService::recordMeasurement(std::uint64_t policyKey,
                                                   double measuredNp) {
  bool newlyMismatched = false;
  policy::Decision d =
      feedback_.recordMeasurement(policyKey, measuredNp, &newlyMismatched);
  if (!newlyMismatched) return d;

  // The measurement just crossed the mismatch tolerance: the platform
  // model's prediction disagrees with observed reality. Instead of
  // leaving the entry flagged, re-run the estimation pipeline and
  // refresh the decision — and when the fresh estimate *still* diverges
  // from the measured EWMA, trust the measurement outright.
  Request resolved;
  {
    std::lock_guard lock(mutex_);
    const auto it = auto_requests_.find(policyKey);
    if (it == auto_requests_.end()) return d;  // key never served here
    resolved = it->second;
  }
  ArtifactPtr fresh;
  try {
    fresh = run(resolved);
  } catch (const GroverError&) {
    return d;  // service shut down mid-refresh; keep the flag
  }
  if (fresh == nullptr || !fresh->ok || !fresh->hasEstimate) return d;

  const double threshold = feedback_.config().threshold;
  const double freshNp = fresh->normalized;
  const double relDiff =
      freshNp > 0 ? std::fabs(freshNp - d.ewmaNp) / freshNp : 0.0;
  policy::Decision refreshed = d;
  refreshed.mismatch = false;
  refreshed.source = "refresh";
  if (relDiff > feedback_.config().mismatchTolerance) {
    refreshed.predictedNp = d.ewmaNp;
    refreshed.confidence = 0.9;
  } else {
    refreshed.predictedNp = freshNp;
  }
  refreshed.variant =
      policy::Decision::variantFor(refreshed.predictedNp, threshold);
  refreshed.predictedOutcome =
      perf::classify(refreshed.predictedNp, threshold);
  refreshed.storedAtMs = 0;  // re-stamp: the refresh restarts the clock
  policy_store_.store(policyKey, refreshed);
  bump(&Counters::policyRefreshes);
  return refreshed;
}

ArtifactPtr CompileService::compileUncached(const Request& resolved,
                                            const CancelScope* cancel) {
  bump(&Counters::compiles);
  auto artifact = std::make_shared<Artifact>();
  if (!resolved.platform.empty()) {
    // The request's platform joins the served set: from now on, an
    // estimate of a kernel that two platforms have asked for prices it
    // too (the estimate memo below).
    perf::PlatformSpec spec = *perf::findPlatform(resolved.platform);
    std::lock_guard lock(mutex_);
    if (std::none_of(served_platforms_.begin(), served_platforms_.end(),
                     [&](const perf::PlatformSpec& p) {
                       return p.name == spec.name;
                     })) {
      served_platforms_.push_back(std::move(spec));
    }
  }
  // Stage-boundary cancellation poll: cheap enough to sit between every
  // stage, coarse enough that a stage never observes a torn abort.
  const auto checkCancelled = [cancel] {
    if (cancel != nullptr && cancel->cancelled()) throw CancelledCompile{};
  };

  Program original;
  Program transformed;
  {
    StageTimer timer(*this, &Counters::frontendNs);
    DiagnosticEngine diags;
    original = compileWithDiags(resolved.source, diags);
    if (original.module == nullptr || diags.hasErrors()) {
      return negative(diags.hasErrors() ? diags.str()
                                        : "compilation produced no module");
    }
    diags.clear();
    transformed = compileWithDiags(resolved.source, diags);
    if (transformed.module == nullptr || diags.hasErrors()) {
      return negative(diags.str());
    }
  }
  // The request's feature key rides in the artifact, so that compileAuto()
  // on a stored artifact needs no front end. Grover never touches
  // `original`.
  if (!resolved.platform.empty()) {
    if (ir::Function* kernel = original.kernel(resolved.kernelName)) {
      const FeatureKey derived = featureKeyOf(resolved, *kernel);
      artifact->hasFeatures = true;
      artifact->features = derived.features;
      artifact->policyKey = derived.policyKey;
    }
  }
  checkCancelled();

  if (!transformKernels(resolved, transformed, artifact->report)) {
    return negative(resolved.kernelName.empty()
                        ? "no kernel found in source"
                        : "kernel '" + resolved.kernelName + "' not found");
  }
  checkCancelled();

  {
    StageTimer timer(*this, &Counters::printNs);
    artifact->originalText = ir::printModule(*original.module);
    artifact->transformedText = ir::printModule(*transformed.module);
  }

  if (resolved.options.prove) {
    checkCancelled();
    StageTimer timer(*this, &Counters::proveNs);
    // App requests prove under their real launch geometry and argument
    // values; raw sources prove under a per-kernel geometry with the
    // dimensions the kernel never queries collapsed to extent 1.
    sym::ProveOptions popts;
    const bool haveLaunch = !resolved.appId.empty();
    if (haveLaunch) {
      const apps::Application& app = apps::applicationById(resolved.appId);
      const apps::Instance instance = app.makeInstance(resolved.scale);
      popts = sym::proveOptionsForLaunch(instance.range, instance.args);
    }
    const auto proveMatching = [&](Program& program,
                                   const std::string& moduleText) {
      sym::ProofStatus agg = sym::ProofStatus::Unchecked;
      std::string note;
      for (const auto& fn : program.module->functions()) {
        if (!fn->isKernel()) continue;
        if (!resolved.kernelName.empty() &&
            fn->name() != resolved.kernelName) {
          continue;
        }
        const Proof proof =
            haveLaunch ? proveMemoized(*fn, moduleText, popts)
                       : prove(*fn, sym::proveOptionsForKernel(*fn));
        const sym::ProofStatus before = agg;
        agg = worseOf(proof.status, agg);
        if (agg != before || note.empty()) {
          note = fn->name() + ": " + proof.summary;
        }
      }
      return std::make_pair(agg, note);
    };
    const auto [origStatus, origNote] =
        proveMatching(original, artifact->originalText);
    const auto [transStatus, transNote] =
        proveMatching(transformed, artifact->transformedText);
    artifact->proofOriginal = origStatus;
    artifact->proofTransformed = transStatus;
    artifact->proofNote =
        worseOf(transStatus, origStatus) == transStatus ? transNote
                                                        : origNote;
    // The veto: an originally race-free (or at worst Unknown) kernel
    // whose transformed IR is provably racy must never be served
    // transformed — the transform manufactured the race. An original
    // that is itself Refuted stays the author's problem; Grover did not
    // make it worse.
    if (origStatus != sym::ProofStatus::Refuted &&
        transStatus == sym::ProofStatus::Refuted) {
      artifact->proofVetoed = true;
      bump(&Counters::proofVetoes);
    }
  }

  if (!resolved.platform.empty()) {
    // Estimation dominates cold latency (~hundreds of ms), so it gets a
    // boundary check before each variant.
    checkCancelled();
    StageTimer timer(*this, &Counters::estimateNs);
    const apps::Application& app = apps::applicationById(resolved.appId);
    const perf::PlatformSpec spec = *perf::findPlatform(resolved.platform);
    // Every variant runs on a fresh instance, and fresh instances are
    // equal, so one fingerprint taken before any run keys both variants.
    std::optional<apps::Instance> fresh = app.makeInstance(resolved.scale);
    const std::uint64_t instanceKey = instanceFingerprint(*fresh);
    const std::uint32_t stride = fresh->benchSampleStride;
    // A memo miss prices (kernel, spec) and, once another platform has
    // asked for this kernel (its estimate there is memoized), every served
    // platform without an estimate of it, with one execution.
    const auto cycles = [&](const std::string& moduleText,
                            ir::Function& kernel) {
      Fnv1a prefix;
      prefix.update(std::string_view("groverc-estimate-key-v1"));
      prefix.update(std::string_view(moduleText));
      prefix.update(std::string_view(resolved.kernelName));
      const auto keyOn = [&](const std::string& platform) {
        Fnv1a h = prefix;
        h.update(std::string_view(platform));
        h.update(std::uint64_t{stride});
        h.update(instanceKey);
        return h.digest();
      };
      std::vector<perf::PlatformSpec> platforms{spec};
      std::vector<std::uint64_t> keys{keyOn(spec.name)};
      {
        std::lock_guard lock(mutex_);
        if (const auto it = estimates_.find(keys[0]);
            it != estimates_.end()) {
          bump(&Counters::estimatesReused);
          return it->second;
        }
        bool askedElsewhere = false;
        for (const perf::PlatformSpec& served : served_platforms_) {
          if (served.name == spec.name) continue;
          const std::uint64_t key = keyOn(served.name);
          if (estimates_.contains(key)) {
            askedElsewhere = true;
          } else {
            platforms.push_back(served);
            keys.push_back(key);
          }
        }
        if (!askedElsewhere) {
          platforms.resize(1);
          keys.resize(1);
        }
      }
      if (!fresh) fresh = app.makeInstance(resolved.scale);
      const std::vector<perf::PerfEstimate> results =
          perf::estimate(platforms, kernel, fresh->range, fresh->args,
                         stride, config_.estimateThreads);
      fresh.reset();  // the run wrote to its buffers
      std::lock_guard lock(mutex_);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        estimates_.try_emplace(keys[i], results[i].cycles);
      }
      return results.front().cycles;
    };
    const double with = cycles(artifact->originalText,
                               *original.kernel(resolved.kernelName));
    checkCancelled();
    const double without = cycles(artifact->transformedText,
                                  *transformed.kernel(resolved.kernelName));
    artifact->hasEstimate = true;
    artifact->cyclesWithLM = with;
    artifact->cyclesWithoutLM = without;
    artifact->normalized = perf::normalizedPerformance(with, without);
    artifact->outcome = perf::classify(artifact->normalized);
  }

  artifact->ok = true;
  return artifact;
}

bool CompileService::transformKernels(const Request& resolved,
                                      Program& program,
                                      grv::GroverResult& report) {
  bool any = false;
  for (const auto& fn : program.module->functions()) {
    if (!fn->isKernel()) continue;
    if (!resolved.kernelName.empty() && fn->name() != resolved.kernelName) {
      continue;
    }
    any = true;
    grv::GroverResult result = [&] {
      StageTimer timer(*this, &Counters::groverNs);
      return grv::runGrover(*fn, resolved.options);
    }();
    {
      StageTimer timer(*this, &Counters::validateNs);
      ir::verifyFunction(*fn);
    }
    report.anyTransformed |= result.anyTransformed;
    report.barriersRemoved |= result.barriersRemoved;
    for (auto& b : result.buffers) report.buffers.push_back(std::move(b));
  }
  return any;
}

CompileService::FeatureKey CompileService::featureKeyOf(
    const Request& resolved, ir::Function& kernel) {
  const apps::Application& app = apps::applicationById(resolved.appId);
  const apps::Instance instance = app.makeInstance(resolved.scale);
  FeatureKey out;
  out.features = policy::extractFeatures(kernel, &instance.range);
  // The tag folds in everything that shapes the transform besides the
  // kernel itself: the scale and the Grover options. The NVD-MM-A/B/AB
  // family shares one kernel source (identical features) but disables
  // different buffers — with different winners, so they must not share
  // a decision.
  Fnv1a tag;
  tag.update(static_cast<std::uint64_t>(resolved.scale));
  tag.update(static_cast<std::uint64_t>(resolved.options.onlyBuffers.size()));
  for (const std::string& b : resolved.options.onlyBuffers) {
    tag.update(std::string_view(b));  // std::set iterates in sorted order
  }
  tag.update(resolved.options.removeBarriers);
  tag.update(resolved.options.cleanup);
  tag.update(resolved.options.prove);
  out.policyKey = policy::featureKey(out.features, resolved.platform,
                                     tag.digest());
  return out;
}

CompileService::Proof CompileService::prove(ir::Function& fn,
                                            const sym::ProveOptions& opts) {
  const sym::SymbolicReport report = sym::proveRaceFreedom(fn, opts);
  bump(&Counters::proofsRun);
  switch (report.status) {
    case sym::ProofStatus::Proved:
      bump(&Counters::proofsProved);
      break;
    case sym::ProofStatus::Refuted:
      bump(&Counters::proofsRefuted);
      break;
    default:
      bump(&Counters::proofsUnknown);
      break;
  }
  return {report.status, report.summary()};
}

CompileService::Proof CompileService::proveMemoized(
    ir::Function& fn, const std::string& moduleText,
    const sym::ProveOptions& opts) {
  Fnv1a h;
  h.update(std::string_view("groverc-proof-key-v1"));
  h.update(std::string_view(moduleText));
  h.update(std::string_view(fn.name()));
  for (unsigned d = 0; d < 3; ++d) {
    h.update(std::uint64_t{opts.localSize[d]});
    h.update(std::uint64_t{opts.numGroups[d]});
  }
  h.update(static_cast<std::uint64_t>(opts.intArgs.size()));
  for (const auto& [index, value] : opts.intArgs) {
    h.update(std::uint64_t{index});
    h.update(static_cast<std::uint64_t>(value));
  }
  const std::uint64_t key = h.digest();
  {
    std::lock_guard lock(mutex_);
    if (const auto it = proofs_.find(key); it != proofs_.end()) {
      bump(&Counters::proofsReused);
      return it->second;
    }
  }
  Proof proof = prove(fn, opts);
  std::lock_guard lock(mutex_);
  proofs_.try_emplace(key, proof);
  return proof;
}

void CompileService::drain() { pool_.waitIdle(); }

void CompileService::shutdown() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_capacity_.notify_all();
  // Stop the measurement thread before draining the pool: a mid-flight
  // refresh it triggered sees stopping_ and backs out quickly.
  stopMeasureThread();
  pool_.waitIdle();
}

ServiceStats CompileService::stats() const {
  // Sub-component snapshots first (each consistent under its own lock),
  // then every service counter in ONE critical section — a reader can
  // never observe e.g. policyHits from after a request but measurements
  // from before it.
  const ArtifactCache::Stats c = cache_.stats();
  const policy::PolicyStore::Stats p = policy_store_.stats();
  const policy::FeedbackLoop::Stats f = feedback_.stats();
  Counters snap;
  {
    std::lock_guard lock(stats_mutex_);
    snap = counters_;
  }
  ServiceStats s;
  s.requests = snap.requests;
  s.memoryHits = snap.memoryHits;
  s.negativeHits = snap.negativeHits;
  s.coalesced = snap.coalesced;
  s.misses = snap.misses;
  s.diskHits = c.diskHits;
  s.compiles = snap.compiles;
  s.cancelled = snap.cancelled;
  s.evictions = c.evictions;
  s.diskLoadFailures = c.diskLoadFailures;
  s.policyDiskLoadFailures = p.diskLoadFailures;
  s.diskStores = c.diskStores;
  s.entries = c.entries;
  s.bytesInUse = c.bytesInUse;
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  s.frontendMs = ms(snap.frontendNs);
  s.groverMs = ms(snap.groverNs);
  s.validateMs = ms(snap.validateNs);
  s.printMs = ms(snap.printNs);
  s.estimateMs = ms(snap.estimateNs);
  s.executeMs = ms(snap.executeNs);
  s.cacheMs = ms(snap.cacheNs);
  s.proveMs = ms(snap.proveNs);
  s.proofsRun = snap.proofsRun;
  s.proofsProved = snap.proofsProved;
  s.proofsRefuted = snap.proofsRefuted;
  s.proofsUnknown = snap.proofsUnknown;
  s.proofVetoes = snap.proofVetoes;
  s.proofsReused = snap.proofsReused;
  s.estimatesReused = snap.estimatesReused;
  s.staleRemeasures = snap.staleRemeasures;
  s.policyHits = snap.policyHits;
  s.policyMisses = snap.policyMisses;
  s.policyStores = snap.policyStores;
  s.featureKeysReused = snap.featureKeysReused;
  s.measurements = snap.measurements;
  s.nativeMeasurements = snap.nativeMeasurements;
  s.policyRefreshes = snap.policyRefreshes;
  s.measurementsDropped = snap.measurementsDropped;
  {
    std::lock_guard lock(measure_mutex_);
    s.measureQueueBacklog = measure_queue_.size();
  }
  s.policyFlips = f.flips;
  s.policyMismatches = f.mismatches;
  return s;
}

}  // namespace grover::service
