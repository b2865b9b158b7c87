// Request and artifact types of the compilation service (DESIGN.md §8).
//
// A Request names *what* to build: either a built-in Table I application
// (appId) or raw OpenCL C source, plus the Grover options and an optional
// platform model for the with/without-local-memory estimate. An Artifact
// is the cacheable, immutable result: printed IR before/after Grover, the
// Table III-style report, the estimate, the policy feature key, or — for
// sources that do not compile — the diagnostics (a negative entry).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "apps/app.h"
#include "grover/grover_pass.h"
#include "perf/estimator.h"
#include "policy/features.h"
#include "sym/report.h"

namespace grover::service {

struct Request {
  /// Built-in application id (e.g. "NVD-MT"). When set, source,
  /// kernelName and options.onlyBuffers are derived from the app.
  std::string appId;
  /// Raw OpenCL C source (ignored when appId is set).
  std::string source;
  /// Kernel to transform; empty = every kernel in the module.
  std::string kernelName;
  grv::GroverOptions options;
  /// Platform model name for the with/without-LM estimate; empty = no
  /// estimation (transform only). Estimation requires appId (the app
  /// provides the dataset).
  std::string platform;
  apps::Scale scale = apps::Scale::Test;
};

/// Immutable compilation result. Shared by every requester of the same
/// key; never mutated after construction.
struct Artifact {
  /// False = negative entry: the source failed to compile (or the request
  /// could not be served); `diagnostics` carries the messages. Negative
  /// entries are cached too, so repeated bad requests never re-compile.
  bool ok = false;
  std::string diagnostics;

  std::string originalText;     // printed module before Grover
  std::string transformedText;  // printed module after Grover
  grv::GroverResult report;     // includes per-buffer refusals + reasons

  bool hasEstimate = false;
  double cyclesWithLM = 0;
  double cyclesWithoutLM = 0;
  double normalized = 0;
  perf::Outcome outcome = perf::Outcome::Similar;

  // Symbolic prover verdicts (Request::options.prove); Unchecked when the
  // request did not ask for proofs. Aggregated worst-of across every
  // kernel the request matched: Refuted > Unknown > Proved.
  sym::ProofStatus proofOriginal = sym::ProofStatus::Unchecked;
  sym::ProofStatus proofTransformed = sym::ProofStatus::Unchecked;
  /// One-line summary of the decisive verdict (the witness on a
  /// refutation, the Unknown reason, or the pair count).
  std::string proofNote;
  /// The safety veto fired: the original kernel is not Refuted but the
  /// transformed IR is — the transform *introduced* a provable race, so
  /// the original must be served regardless of predicted np.
  bool proofVetoed = false;

  /// The request's policy feature vector and policy-store key (DESIGN.md
  /// §10), derived from the original module; filled for requests with a
  /// platform. compileAuto() on a stored artifact reads them here instead
  /// of compiling the kernel again.
  bool hasFeatures = false;
  policy::KernelFeatures features;
  std::uint64_t policyKey = 0;

  /// Approximate memory footprint, used for the cache byte budget.
  [[nodiscard]] std::size_t byteSize() const {
    std::size_t n = sizeof(Artifact) + diagnostics.size() +
                    originalText.size() + transformedText.size() +
                    proofNote.size();
    for (const auto& b : report.buffers) {
      n += sizeof(b) + b.bufferName.size() + b.reason.size() +
           b.glIndex.size() + b.lsIndex.size() + b.llIndex.size() +
           b.nglIndex.size() + b.solution.size();
    }
    return n;
  }
};

using ArtifactPtr = std::shared_ptr<const Artifact>;

}  // namespace grover::service
