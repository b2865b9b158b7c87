// Drives the groverc binary end-to-end (path supplied by CMake as
// GROVERC_PATH): file-handling error paths must exit non-zero with a
// one-line diagnostic — no uncaught exception, no empty-source compile —
// and --serve-batch must serve a request file.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult runGroverc(const std::string& args) {
  const std::string cmd = std::string(GROVERC_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  RunResult r;
  char buf[4096];
  while (pipe != nullptr && fgets(buf, sizeof(buf), pipe) != nullptr) {
    r.output += buf;
  }
  if (pipe != nullptr) {
    const int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return r;
}

std::size_t countLines(const std::string& s) {
  std::size_t n = 0;
  for (char c : s) {
    if (c == '\n') ++n;
  }
  return n;
}

fs::path tmpFile(const std::string& name, const std::string& contents) {
  const fs::path path = fs::temp_directory_path() /
                        ("groverc_cli_" + std::to_string(::getpid()) + "_" +
                         name);
  std::ofstream out(path, std::ios::trunc);
  out << contents;
  return path;
}

TEST(GrovercCli, MissingFileIsOneLineDiagnosticNonZeroExit) {
  const RunResult r = runGroverc("/definitely/not/here.cl");
  EXPECT_NE(r.exitCode, 0);
  EXPECT_NE(r.output.find("cannot read"), std::string::npos) << r.output;
  EXPECT_EQ(countLines(r.output), 1u) << r.output;
  EXPECT_EQ(r.output.find("terminate"), std::string::npos) << r.output;
}

TEST(GrovercCli, DirectoryPathIsRejected) {
  const RunResult r = runGroverc(fs::temp_directory_path().string());
  EXPECT_NE(r.exitCode, 0);
  EXPECT_NE(r.output.find("not a regular file"), std::string::npos)
      << r.output;
  EXPECT_EQ(countLines(r.output), 1u) << r.output;
}

TEST(GrovercCli, EmptyFileIsNotCompiled) {
  const fs::path path = tmpFile("empty.cl", "");
  const RunResult r = runGroverc(path.string());
  EXPECT_NE(r.exitCode, 0);
  EXPECT_NE(r.output.find("file is empty"), std::string::npos) << r.output;
  EXPECT_EQ(countLines(r.output), 1u) << r.output;
  fs::remove(path);
}

TEST(GrovercCli, ValidKernelStillTransforms) {
  const fs::path path = tmpFile("ok.cl", R"CL(
__kernel void copy(__global float* out, __global float* in) {
  __local float tile[16];
  int lx = get_local_id(0);
  tile[lx] = in[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  out[get_global_id(0)] = tile[lx];
}
)CL");
  const RunResult r = runGroverc(path.string() + " --report-only");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("local memory disabled"), std::string::npos)
      << r.output;
  fs::remove(path);
}

TEST(GrovercCli, ServeBatchServesRequestsAndReportsCacheStats) {
  const fs::path batch = tmpFile("batch.txt",
                                 "# two identical + one distinct\n"
                                 "NVD-MT SNB test\n"
                                 "NVD-MT SNB test\n"
                                 "AMD-MT none\n");
  const RunResult r =
      runGroverc("--serve-batch=" + batch.string() + " --repeat=2");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("np "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("served 6 requests"), std::string::npos)
      << r.output;
  // 2 unique keys → exactly 2 compiles despite 6 requests.
  EXPECT_NE(r.output.find(" 2 compiles"), std::string::npos) << r.output;
  fs::remove(batch);
}

TEST(GrovercCli, ServeBatchMalformedLinesAreAttributedToFileAndLine) {
  // The satellite regression at the CLI layer: a bad request in a batch
  // file is reported with the file name and the 1-based line number it
  // sits on (comments and blank lines count), and fails the run.
  const fs::path batch = tmpFile("malformed.txt",
                                 "# header comment\n"
                                 "NVD-MT SNB test\n"
                                 "\n"
                                 "NVD-MT SNB warp\n"
                                 "AMD-SS SNB bench extra\n");
  const RunResult r = runGroverc("--serve-batch=" + batch.string());
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find(batch.string() + ":4: bad scale 'warp'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(batch.string() + ":5: too many arguments"),
            std::string::npos)
      << r.output;
  // The valid line is still served.
  EXPECT_NE(r.output.find("[1] NVD-MT SNB test: ok,"), std::string::npos)
      << r.output;
  fs::remove(batch);
}

TEST(GrovercCli, VersionPrintsInjectedDescribeString) {
  const RunResult r = runGroverc("--version");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_EQ(r.output.rfind("groverc ", 0), 0u) << r.output;
  EXPECT_EQ(countLines(r.output), 1u) << r.output;
  EXPECT_EQ(r.output.find("@GROVER_GIT_DESCRIBE@"), std::string::npos)
      << r.output;
}

TEST(GrovercCli, ConnectWithoutServeBatchIsRejected) {
  const RunResult r = runGroverc("--connect=127.0.0.1:9 x.cl");
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("--connect requires --serve-batch"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(countLines(r.output), 1u) << r.output;
}

TEST(GrovercCli, ServeBatchMissingFileFails) {
  const RunResult r = runGroverc("--serve-batch=/no/such/batch.txt");
  EXPECT_NE(r.exitCode, 0);
  EXPECT_NE(r.output.find("cannot read"), std::string::npos) << r.output;
}

TEST(GrovercCli, BadNumericFlagValuesExitOneWithOneLineDiagnostic) {
  // Zero, negative, garbage and out-of-range values of every count flag
  // get the same treatment: one diagnostic line naming the flag and
  // value, exit 1.
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {"--threads=0 x.cl", "--threads"},
      {"--threads=-4 x.cl", "--threads"},
      {"--threads=abc x.cl", "--threads"},
      {"--threads=3junk x.cl", "--threads"},
      {"--repeat=0 x.cl", "--repeat"},
      {"--repeat=-1 x.cl", "--repeat"},
      {"--cache-mb=0 x.cl", "--cache-mb"},
      {"--cache-mb=xyz x.cl", "--cache-mb"},
      // Past the destination's range: rejected, never wrapped.
      {"--repeat=2147483648 x.cl", "--repeat"},
      {"--repeat=4294967296 x.cl", "--repeat"},
      {"--threads=4294967296 x.cl", "--threads"},
      {"--threads=18446744073709551616 x.cl", "--threads"},
      {"--cache-mb=17592186044416 x.cl", "--cache-mb"},  // 2^44: << 20 wraps
  };
  for (const auto& c : cases) {
    const RunResult r = runGroverc(c.args);
    EXPECT_EQ(r.exitCode, 1) << c.args << "\n" << r.output;
    EXPECT_NE(r.output.find(std::string("bad ") + c.flag + " value"),
              std::string::npos)
        << c.args << "\n" << r.output;
    EXPECT_EQ(countLines(r.output), 1u) << c.args << "\n" << r.output;
    EXPECT_EQ(r.output.find("terminate"), std::string::npos) << r.output;
  }
}

TEST(GrovercCli, AutoServeBatchLearnsThenServesFromThePolicyStore) {
  const fs::path batch = tmpFile("auto_batch.txt",
                                 "NVD-MT SNB test\n"
                                 "NVD-MT Fermi test\n");
  const fs::path policyDir =
      fs::temp_directory_path() /
      ("groverc_cli_policy_" + std::to_string(::getpid()));
  fs::remove_all(policyDir);

  // Cold run: every request is a cold decision, learned and persisted.
  const std::string args = "--serve-batch=" + batch.string() + " --auto" +
                           " --policy-dir=" + policyDir.string();
  const RunResult cold = runGroverc(args);
  EXPECT_EQ(cold.exitCode, 0) << cold.output;
  EXPECT_NE(cold.output.find("cold decision"), std::string::npos)
      << cold.output;
  EXPECT_NE(cold.output.find("2 decisions stored"), std::string::npos)
      << cold.output;
  // NVD-MT is the paper's flagship: gain on the cache-only CPU, loss on
  // the scratchpad GPU — the policy serves opposite variants.
  EXPECT_NE(cold.output.find("serving without-local-memory"),
            std::string::npos)
      << cold.output;
  EXPECT_NE(cold.output.find("serving with-local-memory"),
            std::string::npos)
      << cold.output;

  // Warm run, fresh process: decisions come back from the disk tier and
  // every request is a policy hit.
  const RunResult warm = runGroverc(args);
  EXPECT_EQ(warm.exitCode, 0) << warm.output;
  EXPECT_NE(warm.output.find("policy hit"), std::string::npos)
      << warm.output;
  EXPECT_NE(warm.output.find("policy: 2 hits, 0 misses"), std::string::npos)
      << warm.output;
  EXPECT_EQ(warm.output.find("cold decision"), std::string::npos)
      << warm.output;

  fs::remove(batch);
  fs::remove_all(policyDir);
}

TEST(GrovercCli, AutoWithoutServeBatchIsRejected) {
  const fs::path path = tmpFile("auto_alone.cl", "__kernel void k() {}\n");
  const RunResult r = runGroverc("--auto " + path.string());
  EXPECT_NE(r.exitCode, 0);
  EXPECT_NE(r.output.find("--auto"), std::string::npos) << r.output;
  EXPECT_EQ(countLines(r.output), 1u) << r.output;
  fs::remove(path);
}

}  // namespace
