// Drives the real groverd and groverc binaries end-to-end (paths
// supplied by CMake): start a daemon on an ephemeral loopback port,
// serve a batch through `groverc --connect` cold then warm, and check
// the SIGTERM drain exits 0 after a clean shutdown. Also the --version
// satellite: both binaries must print the CMake-injected git describe
// string.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult runCommand(const std::string& cmd) {
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
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

fs::path tmpFile(const std::string& name, const std::string& contents) {
  const fs::path path = fs::temp_directory_path() /
                        ("groverd_cli_" + std::to_string(::getpid()) + "_" +
                         name);
  std::ofstream out(path, std::ios::trunc);
  out << contents;
  return path;
}

/// A groverd child process with stdout+stderr captured on a pipe.
struct Daemon {
  pid_t pid = -1;
  FILE* out = nullptr;
  int port = 0;
  std::string log;

  /// Fork + exec the daemon and wait for its startup line:
  /// "groverd <ver> (protocol v1) listening on 127.0.0.1:<port>".
  /// Leaves port == 0 on failure; callers ASSERT on it.
  void start(const std::vector<std::string>& extraArgs = {}) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::dup2(fds[1], STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv = {const_cast<char*>("groverd"),
                                 const_cast<char*>("--port=0"),
                                 const_cast<char*>("--threads=2")};
      for (const std::string& arg : extraArgs) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(GROVERD_PATH, argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out = ::fdopen(fds[0], "r");
    ASSERT_NE(out, nullptr);

    char buf[512];
    while (::fgets(buf, sizeof(buf), out) != nullptr) {
      log += buf;
      const std::string line = buf;
      if (line.find("listening on ") == std::string::npos) continue;
      const std::size_t colon = line.rfind(':');
      ASSERT_NE(colon, std::string::npos) << line;
      port = std::atoi(line.c_str() + colon + 1);
      break;
    }
    ASSERT_GT(port, 0) << "no listening line from groverd:\n" << log;
  }

  ~Daemon() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    if (out != nullptr) ::fclose(out);
  }

  /// SIGTERM, then collect the exit code and the rest of the log.
  int terminate() {
    ::kill(pid, SIGTERM);
    char buf[512];
    while (::fgets(buf, sizeof(buf), out) != nullptr) log += buf;
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  [[nodiscard]] std::string connectFlag() const {
    return "--connect=127.0.0.1:" + std::to_string(port);
  }
};

TEST(GroverdCli, VersionPrintsInjectedDescribeString) {
  const RunResult r = runCommand(std::string(GROVERD_PATH) + " --version");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_EQ(r.output.rfind("groverd ", 0), 0u) << r.output;
  EXPECT_NE(r.output.find("(protocol v1)"), std::string::npos) << r.output;
  // The placeholder only appears when the CMake injection broke.
  EXPECT_EQ(r.output.find("@GROVER_GIT_DESCRIBE@"), std::string::npos);
}

TEST(GroverdCli, HelpListsTheServingFlags) {
  const RunResult r = runCommand(std::string(GROVERD_PATH) + " --help");
  EXPECT_EQ(r.exitCode, 0);
  for (const char* flag : {"--port", "--socket", "--max-queue",
                           "--client-credits", "--idle-timeout-ms",
                           "--measure-rate", "--measure-queue-depth"}) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "missing " << flag << " in:\n" << r.output;
  }
}

TEST(GroverdCli, UnknownFlagExitsTwo) {
  // The daemon has one event loop, so --loop-shards is unknown too.
  for (const char* flag : {"--bogus", "--loop-shards=2"}) {
    const RunResult r =
        runCommand(std::string(GROVERD_PATH) + " " + flag);
    EXPECT_EQ(r.exitCode, 2) << flag;
    EXPECT_NE(r.output.find("unknown option: " + std::string(flag)),
              std::string::npos)
        << r.output;
  }
}

TEST(GroverdCli, BadNumericFlagValuesExitOneWithOneLineDiagnostic) {
  // Garbage, negative, zero-where-positive and out-of-range values of
  // every count flag: one diagnostic line naming the flag, exit 1. The
  // trailing --version turns a wrongly accepted value into exit 0
  // instead of a daemon that never returns.
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {"--port=abc", "--port"},
      {"--port=-1", "--port"},
      {"--port=65536", "--port"},
      {"--port=65537", "--port"},
      {"--threads=0", "--threads"},
      {"--threads=4294967296", "--threads"},
      {"--max-queue=0", "--max-queue"},
      {"--client-credits=x", "--client-credits"},
      {"--cache-mb=17592186044416", "--cache-mb"},
      {"--idle-timeout-ms=2147483648", "--idle-timeout-ms"},
      {"--idle-timeout-ms=4294967296", "--idle-timeout-ms"},
      {"--health-interval=2147483648", "--health-interval"},
      {"--policy-horizon-ms=18446744073709551616", "--policy-horizon-ms"},
  };
  for (const auto& c : cases) {
    const RunResult r = runCommand(std::string(GROVERD_PATH) + " " +
                                   c.args + " --version");
    EXPECT_EQ(r.exitCode, 1) << c.args << "\n" << r.output;
    EXPECT_NE(r.output.find(std::string("bad ") + c.flag + " value"),
              std::string::npos)
        << c.args << "\n" << r.output;
    EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1)
        << c.args << "\n" << r.output;
  }
}

TEST(GroverdCli, ServesColdThenWarmThenDrainsOnSigterm) {
  Daemon daemon;
  daemon.start();
  ASSERT_GT(daemon.port, 0);
  const fs::path batch = tmpFile("reqs.txt",
                                 "# two requests, one repeated\n"
                                 "NVD-MT SNB test\n"
                                 "AMD-SS SNB test\n"
                                 "NVD-MT SNB test\n");

  // Cold pass: the daemon compiles; every verdict line renders.
  const RunResult cold = runCommand(std::string(GROVERC_PATH) +
                                    " --serve-batch=" + batch.string() +
                                    " " + daemon.connectFlag());
  EXPECT_EQ(cold.exitCode, 0) << cold.output;
  EXPECT_NE(cold.output.find("[1] NVD-MT SNB test: ok,"), std::string::npos)
      << cold.output;
  EXPECT_NE(cold.output.find("served 3 requests"), std::string::npos)
      << cold.output;
  EXPECT_NE(cold.output.find("2 compiles"), std::string::npos)
      << cold.output;

  // Warm pass, policy path: the daemon's caches and policy store carry
  // across client processes — that is the reason groverd exists.
  const RunResult warmUp = runCommand(std::string(GROVERC_PATH) +
                                      " --serve-batch=" + batch.string() +
                                      " --auto " + daemon.connectFlag());
  EXPECT_EQ(warmUp.exitCode, 0) << warmUp.output;
  const RunResult warm = runCommand(std::string(GROVERC_PATH) +
                                    " --serve-batch=" + batch.string() +
                                    " --auto " + daemon.connectFlag());
  EXPECT_EQ(warm.exitCode, 0) << warm.output;
  EXPECT_NE(warm.output.find("policy hit"), std::string::npos)
      << warm.output;
  EXPECT_EQ(warm.output.find("cold decision"), std::string::npos)
      << warm.output;

  const int exitCode = daemon.terminate();
  EXPECT_EQ(exitCode, 0) << daemon.log;
  EXPECT_NE(daemon.log.find("clean shutdown"), std::string::npos)
      << daemon.log;
  fs::remove(batch);
}

TEST(GroverdCli, MalformedRequestLineFailsTheClientBatch) {
  Daemon daemon;
  daemon.start();
  ASSERT_GT(daemon.port, 0);
  const fs::path batch = tmpFile("bad.txt",
                                 "NVD-MT SNB test\n"
                                 "NVD-MT SNB warp\n");
  const RunResult r = runCommand(std::string(GROVERC_PATH) +
                                 " --serve-batch=" + batch.string() + " " +
                                 daemon.connectFlag());
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("bad scale 'warp'"), std::string::npos)
      << r.output;
  // The daemon survives the bad request.
  EXPECT_EQ(daemon.terminate(), 0) << daemon.log;
  fs::remove(batch);
}

TEST(GroverdCli, GrovercRejectsDaemonSideFlagsWithConnect) {
  const fs::path batch = tmpFile("one.txt", "NVD-MT SNB test\n");
  const RunResult r = runCommand(std::string(GROVERC_PATH) +
                                 " --serve-batch=" + batch.string() +
                                 " --connect=127.0.0.1:1 --threads=4");
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("daemon-side"), std::string::npos) << r.output;
  fs::remove(batch);
}

TEST(GroverdCli, DaemonServesBinaryStatsEndToEnd) {
  Daemon daemon;
  daemon.start();
  ASSERT_GT(daemon.port, 0);

  const fs::path batch = tmpFile("stats.txt", "NVD-MT SNB test\n");
  const RunResult served = runCommand(std::string(GROVERC_PATH) +
                                      " --serve-batch=" + batch.string() +
                                      " " + daemon.connectFlag());
  EXPECT_EQ(served.exitCode, 0) << served.output;

  // The binary stats frame, decoded client-side: daemon gauges and
  // totals reflecting the request just served.
  const RunResult stats = runCommand(std::string(GROVERC_PATH) + " " +
                                     daemon.connectFlag() + " --stats");
  EXPECT_EQ(stats.exitCode, 0) << stats.output;
  EXPECT_NE(stats.output.find("daemon: up "), std::string::npos)
      << stats.output;
  EXPECT_NE(stats.output.find("1 admitted"), std::string::npos)
      << stats.output;

  const RunResult json = runCommand(std::string(GROVERC_PATH) + " " +
                                    daemon.connectFlag() + " --stats-json");
  EXPECT_EQ(json.exitCode, 0) << json.output;
  EXPECT_NE(json.output.find("\"version\":3"), std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("\"requests_admitted\":1"), std::string::npos)
      << json.output;

  // --stats is its own mode: mixing it with a batch is rejected.
  const RunResult mixed = runCommand(std::string(GROVERC_PATH) +
                                     " --serve-batch=" + batch.string() +
                                     " --stats " + daemon.connectFlag());
  EXPECT_EQ(mixed.exitCode, 1);

  EXPECT_EQ(daemon.terminate(), 0) << daemon.log;
  EXPECT_NE(daemon.log.find("clean shutdown"), std::string::npos)
      << daemon.log;
  fs::remove(batch);
}

TEST(GroverdCli, ConnectRefusedIsOneLineDiagnostic) {
  const fs::path batch = tmpFile("refused.txt", "NVD-MT SNB test\n");
  // Port 1 on loopback: reserved, nothing listens there.
  const RunResult r = runCommand(std::string(GROVERC_PATH) +
                                 " --serve-batch=" + batch.string() +
                                 " --connect=127.0.0.1:1");
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("cannot connect"), std::string::npos) << r.output;
  fs::remove(batch);
}

}  // namespace
