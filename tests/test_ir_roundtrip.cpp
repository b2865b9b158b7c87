// Property-style round-trip test over every built-in Table I application:
// print → parse → print must be a byte-identical fixed point, and the
// reparsed module must pass the verifier — before AND after Grover. This
// is the correctness foundation of the service's on-disk artifact tier,
// which stores printed modules and writes only text that passes this
// round trip.
#include <gtest/gtest.h>

#include "apps/app.h"
#include "grover/grover_pass.h"
#include "grovercl/compiler.h"
#include "ir/ir_parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace grover {
namespace {

class ModuleRoundTrip : public ::testing::TestWithParam<std::string> {};

void expectFixedPoint(ir::Module& module, const std::string& what) {
  const std::string printed = ir::printModule(module);
  ir::Context ctx;
  std::unique_ptr<ir::Module> reparsed;
  ASSERT_NO_THROW(reparsed = ir::parseModule(ctx, printed)) << what;
  // parseModule verifies; verify once more explicitly so a relaxation of
  // the parser can never silently weaken this property.
  ASSERT_NO_THROW(ir::verifyModule(*reparsed)) << what;
  EXPECT_EQ(reparsed->name(), module.name()) << what;
  const std::string reprinted = ir::printModule(*reparsed);
  EXPECT_EQ(reprinted, printed) << what << ": print-parse-print not stable";
  // One more lap: the reparsed text must itself be a fixed point.
  ir::Context ctx2;
  auto reparsed2 = ir::parseModule(ctx2, reprinted);
  EXPECT_EQ(ir::printModule(*reparsed2), reprinted) << what;
}

TEST_P(ModuleRoundTrip, BeforeGrover) {
  const apps::Application& app = apps::applicationById(GetParam());
  Program program = compile(app.source());
  expectFixedPoint(*program.module, app.id() + " (before)");
}

TEST_P(ModuleRoundTrip, AfterGrover) {
  const apps::Application& app = apps::applicationById(GetParam());
  Program program = compile(app.source());
  ir::Function* kernel = program.kernel(app.kernelName());
  ASSERT_NE(kernel, nullptr);
  grv::GroverOptions options;
  options.onlyBuffers = app.buffersToDisable();
  (void)grv::runGrover(*kernel, options);
  ASSERT_NO_THROW(ir::verifyFunction(*kernel));
  expectFixedPoint(*program.module, app.id() + " (after)");
}

std::vector<std::string> allAppIds() {
  std::vector<std::string> ids;
  for (const auto& app : apps::allApplications()) ids.push_back(app->id());
  return ids;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, ModuleRoundTrip, ::testing::ValuesIn(allAppIds()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace grover
