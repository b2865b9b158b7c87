// groverd's serving core (DESIGN.md §12): one poll()-based event loop
// over a TCP (and optionally a Unix-domain) listener, per-connection
// request pipelining of wire.h frames, and a bounded admission queue
// feeding a support::ThreadPool that runs requests through a
// CompileService.
//
// Threading model: the thread that calls run() is the loop thread. It
// owns every socket, connection state machine and the admission count.
// It answers a request itself when the service can answer it from memory
// alone (CompileService::answerFromMemory); such an answer holds one of
// the connection's credits until the poll round ends. Every other request
// runs on a worker thread, which hands the finished response back through
// a mutex-guarded completion queue plus a self-pipe wakeup and never
// touches a socket. The counters are atomics, so stats() and
// statsFrame() are readable from any thread. requestStop() is
// async-signal-safe (one pipe write), so SIGINT/SIGTERM handlers can
// trigger a graceful drain: stop accepting, reject new requests with
// Status::ShuttingDown, finish every admitted request, flush, exit run().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "service/compile_service.h"
#include "support/thread_pool.h"

namespace grover::net {

struct ServerConfig {
  /// TCP listener address. Loopback by default: groverd is a local
  /// compile daemon, not an internet-facing service.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Optional Unix-domain listener path (empty = TCP only). A stale
  /// socket file at the path is reclaimed only after a probe connect()
  /// proves no live daemon owns it (ECONNREFUSED).
  std::string unixPath;
  /// Bounded admission queue: requests admitted (queued or executing)
  /// at once, across all connections. Excess requests are answered
  /// immediately with Status::Overloaded — backpressure, not OOM.
  std::size_t maxAdmitted = 128;
  /// Per-connection admission credits: how many requests ONE connection
  /// may hold admitted at once, counting those answered on the loop this
  /// poll round. A pipeliner past its credits is answered Overloaded while
  /// other connections still admit — fairness, so one greedy client
  /// cannot monopolize the global queue or the loop. Matches groverc
  /// --connect's pipeline window so a single well-behaved client is
  /// never rejected. 0 disables the per-connection bound.
  std::size_t clientCredits = 64;
  /// Global admission reserve: the last `admitReserve` slots below
  /// maxAdmitted only admit a connection's FIRST outstanding request.
  /// Even when several pipeliners collectively fill the queue, a polite
  /// serial client still gets in. Clamped below maxAdmitted.
  std::size_t admitReserve = 8;
  /// Read fairness: max bytes drained from one connection per event-loop
  /// tick. A faster writer keeps the rest buffered in the kernel until
  /// the next poll round (readBudgetExhausted in stats) instead of
  /// monopolizing the loop thread.
  std::size_t readBudgetBytes = 64 * 1024;
  /// How long to stop polling the listeners after accept() hit the
  /// process fd limit (EMFILE/ENFILE); prevents a 100%-CPU poll spin on
  /// a listener that cannot be served.
  int acceptBackoffMs = 100;
  /// Worker threads executing service calls (0 = hardware concurrency).
  unsigned workers = 0;
  /// Close connections with no in-flight request and no traffic for
  /// this long; <= 0 disables the timeout. A connection waiting on a
  /// slow cold compile is never idle-closed: admission and completion
  /// both count as activity, and in-flight requests pin the connection.
  int idleTimeoutMs = 0;
  /// On drain, wait at most this long for response flushes to clients
  /// that have stopped reading before force-closing them. In-flight
  /// *service* work always completes regardless.
  int drainTimeoutMs = 5000;
  /// Per-frame payload bound (Status::Malformed beyond it).
  std::size_t maxPayload = kMaxPayload;
  /// Run the symbolic race prover on every request (groverd --prove):
  /// options.prove is forced onto each parsed grammar line, so a
  /// transformed kernel whose original was race-free but whose
  /// transformed IR is Refuted is never served.
  bool prove = false;
};

class Server {
 public:
  /// The service outlives the server; the server never owns it (the
  /// daemon shuts the service down after run() returns).
  Server(service::CompileService& service, ServerConfig config,
         std::ostream* log = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Create, bind and listen on the configured sockets. Throws
  /// GroverError on any socket failure (port in use, live daemon on the
  /// unix path).
  void bind();

  /// The event loop, on the calling thread. Returns after requestStop()
  /// once every admitted request has completed and responses are
  /// flushed (or the drain timeout forced the remaining connections
  /// closed). Call bind() first.
  void run();

  /// Begin a graceful drain. Async-signal-safe and callable from any
  /// thread (it only writes one byte to the wakeup pipe).
  void requestStop() noexcept;

  /// Bound TCP port (after bind(); the ephemeral port when config.port
  /// was 0) — 0 when no TCP listener exists.
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }

  /// Event-loop counters. Callable from any thread.
  [[nodiscard]] StatsCounters stats() const;

  /// The binary stats/health snapshot a StatsBinary request returns
  /// (uptime, live gauges, counters). Callable from any thread —
  /// groverd's --health-interval thread uses it directly.
  [[nodiscard]] StatsFrame statsFrame() const;

 private:
  struct Connection;
  struct Completion {
    std::uint64_t connId = 0;
    std::uint64_t requestId = 0;
    Status status = Status::Ok;
    std::string text;
  };

  void wake() noexcept;
  void acceptPending(int listenFd);
  void adoptFd(int fd);
  void handleReadable(Connection& conn);
  void handleFrame(Connection& conn, Frame frame);
  /// Answer a request frame on the loop thread from the service's memory.
  /// False when the service declines; the caller then admits it.
  [[nodiscard]] bool answerInline(Connection& conn, const Frame& frame);
  void dispatchRequest(Connection& conn, FrameType type, std::uint64_t id,
                       std::string payload);
  void respond(Connection& conn, FrameType type, std::uint64_t id,
               Status status, std::string_view text);
  void flushWrites(Connection& conn);
  void maybeCloseDrained(Connection& conn);
  void closeConnection(std::uint64_t connId);
  void drainCompletions();
  [[nodiscard]] std::string renderStatsPayload();
  void log(const std::string& message);

  service::CompileService& service_;
  ServerConfig config_;
  std::ostream* log_stream_;

  int tcp_listen_fd_ = -1;
  int unix_listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  /// Set when bind() created the unix socket file, so the destructor
  /// only unlinks a path this server actually owns.
  bool unix_bound_ = false;

  // Cross-thread: workers push completions, the loop drains them.
  std::mutex completion_mutex_;
  std::vector<Completion> completions_;

  // Counters: written only by the loop thread, atomics so stats() and
  // statsFrame() can read them from anywhere.
  std::atomic<std::uint64_t> accepted_{0}, closed_{0}, frames_{0},
      admitted_total_{0}, responses_{0}, overloaded_{0}, credit_rejected_{0},
      shutdown_rejected_{0}, protocol_errors_{0}, disconnected_{0},
      idle_timeouts_{0}, read_budget_exhausted_{0}, accepts_shed_{0};
  /// Requests admitted and not yet completed, and open connections.
  std::atomic<std::size_t> admitted_{0};
  std::atomic<std::size_t> open_connections_{0};
  std::atomic<bool> stop_requested_{false};
  std::chrono::steady_clock::time_point started_at_;

  // Loop-thread state.
  std::vector<std::unique_ptr<Connection>> connections_;
  std::unordered_map<std::uint64_t, Connection*> conn_by_id_;
  std::unordered_map<int, Connection*> conn_by_fd_;
  std::uint64_t next_conn_id_ = 1;
  bool draining_ = false;
  // EMFILE recovery: a reserve fd (to /dev/null) we can close to free a
  // descriptor, accept the pending connection, shed it, and re-open the
  // reserve — so the kernel backlog cannot wedge full of connections we
  // will never see. Plus a listener-poll backoff to avoid spinning.
  int reserve_fd_ = -1;
  std::chrono::steady_clock::time_point accept_backoff_until_{};
  int accept_errno_logged_ = 0;

  /// Runs every request; ~Server waits for it to go idle before closing
  /// the wakeup pipe its tasks write.
  ThreadPool workers_;
};

}  // namespace grover::net
