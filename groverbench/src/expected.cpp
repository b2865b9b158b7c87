// groverbench_expected — writes the benchmark's expected-verdict file:
// the kernel variant groverd must serve for each of the 66 keys.
//
//   groverbench_expected > groverbench/expected_variants.txt
//
// The verdict is derived without the compile service: both kernel
// versions are compiled and estimated with perf::estimate directly, the
// without-local-memory variant is served exactly when perf::classify
// calls its np a gain (the paper's 5% threshold), and a transform the
// symbolic prover refutes while the original is not refuted is vetoed
// (the original is served), as groverd --prove does.
#include <iomanip>
#include <iostream>

#include "apps/app.h"
#include "core.h"
#include "grover/grover_pass.h"
#include "grovercl/compiler.h"
#include "perf/estimator.h"
#include "perf/platform.h"
#include "sym/prover.h"
#include "sym/witness_check.h"

int main() {
  namespace gr = grover;
  using groverbench::Variant;
  std::cout << "# Served variant per benchmark key (groverd --prove, test "
               "scale),\n# from perf::estimate called directly; written by "
               "groverbench_expected.\n# <app> <platform> <variant>  # np, "
               "proof of original/transformed\n";
  for (const groverbench::Key& key : groverbench::allKeys()) {
    const gr::apps::Application& app = gr::apps::applicationById(key.app);
    const gr::perf::PlatformSpec spec = *gr::perf::findPlatform(key.platform);
    gr::grv::GroverOptions options;
    options.onlyBuffers = app.buffersToDisable();
    options.prove = true;
    gr::Program original = gr::compile(app.source());
    gr::Program transformed = gr::compile(app.source());
    gr::ir::Function& origKernel = *original.kernel(app.kernelName());
    gr::ir::Function& transKernel = *transformed.kernel(app.kernelName());
    (void)gr::grv::runGrover(transKernel, options);

    const gr::apps::Instance launch = app.makeInstance(gr::apps::Scale::Test);
    const gr::sym::ProveOptions popts =
        gr::sym::proveOptionsForLaunch(launch.range, launch.args);
    const gr::sym::ProofStatus origProof =
        gr::sym::proveRaceFreedom(origKernel, popts).status;
    const gr::sym::ProofStatus transProof =
        gr::sym::proveRaceFreedom(transKernel, popts).status;

    double cycles[2];
    for (int v = 0; v < 2; ++v) {
      gr::apps::Instance i = app.makeInstance(gr::apps::Scale::Test);
      cycles[v] = gr::perf::estimate(spec, v == 0 ? origKernel : transKernel,
                                     i.range, i.args, i.benchSampleStride,
                                     /*threads=*/1)
                      .cycles;
    }
    const double np = gr::perf::normalizedPerformance(cycles[0], cycles[1]);
    const bool vetoed = origProof != gr::sym::ProofStatus::Refuted &&
                        transProof == gr::sym::ProofStatus::Refuted;
    const Variant served =
        gr::perf::classify(np) == gr::perf::Outcome::Gain && !vetoed
            ? Variant::WithoutLocal
            : Variant::WithLocal;
    std::cout << std::left << std::setw(10) << key.app << std::setw(8)
              << key.platform << std::setw(21)
              << groverbench::toString(served) << "# np " << std::fixed
              << std::setprecision(3) << np << ", proof "
              << gr::sym::toString(origProof) << "/"
              << gr::sym::toString(transProof)
              << (vetoed ? ", transform vetoed" : "") << "\n";
  }
  return 0;
}
