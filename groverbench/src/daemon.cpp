#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/wire.h"

namespace groverbench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string logTail(const std::string& path) {
  const std::string log = readFile(path);
  return log.size() > 400 ? log.substr(log.size() - 400) : log;
}

}  // namespace

Daemon::Daemon(const DaemonOptions& options) : log_path_(options.logPath) {
  std::vector<std::string> args = {options.exe, "--threads=2", "--prove",
                                   "--port=0"};
  if (!options.cacheDir.empty()) {
    args.push_back("--cache-dir=" + options.cacheDir);
  }
  if (!options.policyDir.empty()) {
    args.push_back("--policy-dir=" + options.policyDir);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const int log = ::open(log_path_.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int null = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (log < 0 || null < 0) {
    ::close(out[0]);
    ::close(out[1]);
    if (log >= 0) ::close(log);
    if (null >= 0) ::close(null);
    throw std::runtime_error("cannot open daemon log " + log_path_);
  }

  const Clock::time_point spawned = Clock::now();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec. The daemon dies
    // with the benchmark even if the benchmark is killed outright.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(null, 0);
    ::dup2(out[1], 1);
    ::dup2(log, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  ::close(log);
  ::close(null);
  if (pid_ < 0) {
    ::close(out[0]);
    throw std::runtime_error("fork failed");
  }

  // Wait for "... listening on 127.0.0.1:<port>\n".
  std::string line;
  bool done = false;
  while (!done && secondsSince(spawned) < 60) {
    pollfd p{out[0], POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(out[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: the daemon exited
    line.append(buf, static_cast<std::size_t>(n));
    done = line.find('\n') != std::string::npos;
  }
  start_seconds_ = secondsSince(spawned);
  ::close(out[0]);
  const std::size_t at = line.find("listening on 127.0.0.1:");
  if (!done || at == std::string::npos) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    throw std::runtime_error("groverd did not start: " + line +
                             logTail(log_path_));
  }
  std::size_t end = at + 23;
  while (end < line.size() && std::isdigit(static_cast<unsigned char>(
                                  line[end]))) {
    ++end;
  }
  address_ = line.substr(at + 13, end - at - 13);
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

double Daemon::cpuMs() const {
  const auto ticks = parseProcCpuTicks(
      readFile("/proc/" + std::to_string(pid_) + "/stat"));
  if (!ticks) throw std::runtime_error("cannot read daemon CPU time");
  return static_cast<double>(*ticks) * 1000.0 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::uint64_t Daemon::peakRssKb() const {
  const auto kb =
      parseVmHwmKb(readFile("/proc/" + std::to_string(pid_) + "/status"));
  if (!kb) throw std::runtime_error("cannot read daemon VmHWM");
  return *kb;
}

DaemonCounters Daemon::counters() const {
  grover::net::Client client;
  client.connect(address_);
  client.sendFrame(grover::net::FrameType::Stats, 1, "");
  const grover::net::Frame frame = client.readFrame();
  grover::net::Status status;
  std::string_view text;
  if (frame.type != grover::net::FrameType::StatsResponse ||
      !grover::net::splitStatusPayload(frame.payload, status, text) ||
      status != grover::net::Status::Ok) {
    throw std::runtime_error("bad Stats reply from groverd");
  }
  return parseStatsText(text);
}

void Daemon::pinTo(int cpu) const {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid_) + "/task")) {
    const pid_t tid = std::stoi(task.path().filename().string());
    if (::sched_setaffinity(tid, sizeof(one), &one) != 0) {
      throw std::runtime_error("cannot pin groverd thread " +
                               std::to_string(tid));
    }
  }
}

std::string Daemon::stop() {
  if (pid_ <= 0) return "daemon not running";
  ::kill(pid_, SIGTERM);
  const Clock::time_point asked = Clock::now();
  int status = 0;
  pid_t r = 0;
  while ((r = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         secondsSince(asked) < 60) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (r == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return "groverd ignored SIGTERM for 60 s";
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return "groverd exited abnormally (status " + std::to_string(status) +
           "): " + logTail(log_path_);
  }
  if (readFile(log_path_).find("groverd: clean shutdown") ==
      std::string::npos) {
    return "groverd log lacks 'clean shutdown': " + logTail(log_path_);
  }
  return {};
}

}  // namespace groverbench
