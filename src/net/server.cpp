#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>

#include "net/batch.h"
#include "net/render.h"
#include "support/diagnostics.h"
#include "support/str.h"

namespace grover::net {
namespace {

using Clock = std::chrono::steady_clock;

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void closeFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// A grammar line parsed as a request. The daemon's --prove policy
/// applies to every request; the grammar has no per-line way to opt out
/// of safety.
BatchEntry parseRequest(const std::string& payload, bool prove) {
  BatchEntry entry = parseRequestLine(payload);
  entry.request.options.prove |= prove;
  return entry;
}

}  // namespace

/// Per-connection state machine. Reads accumulate in `reader` until
/// whole frames decode; writes drain from `writeBuf` as the socket
/// accepts them (partial writes keep their offset). Only the loop
/// thread touches it.
struct Server::Connection {
  int fd = -1;
  std::uint64_t connId = 0;
  FrameReader reader;
  std::string writeBuf;
  std::size_t writeOff = 0;
  /// Admitted requests whose response has not been queued yet.
  std::size_t inflight = 0;
  /// Requests answered on the loop thread this poll round. Each holds one
  /// credit (clientCredits) until the round ends.
  std::size_t answeredInline = 0;
  /// Protocol violation: flush the Error frame, then close. No further
  /// reads are processed.
  bool closeAfterFlush = false;
  /// Peer half-closed (shutdown(SHUT_WR)): it sends no more but may
  /// still be reading. Frames already buffered are served and their
  /// responses flushed before the connection closes.
  bool readClosed = false;
  /// This connection's disconnect flag, shared with service workers so
  /// cold work for a vanished client can be abandoned (cancel.h).
  service::CancelToken cancel;
  /// Index in the server's connection vector (swap-pop on close).
  std::size_t slot = 0;
  /// Last time this connection did something that counts against the
  /// idle timeout: socket reads, request admission, and response
  /// completion all bump it, so waiting on a slow compile is activity.
  Clock::time_point lastActivity = Clock::now();

  explicit Connection(std::size_t maxPayload) : reader(maxPayload) {}
  [[nodiscard]] bool wantsWrite() const {
    return writeOff < writeBuf.size();
  }
};

Server::Server(service::CompileService& service, ServerConfig config,
               std::ostream* log)
    : service_(service),
      config_(std::move(config)),
      log_stream_(log),
      started_at_(Clock::now()),
      workers_(config_.workers) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw GroverError(
        cat("cannot create wakeup pipe: ", std::strerror(errno)));
  }
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  setNonBlocking(wake_read_fd_);
  setNonBlocking(wake_write_fd_);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

Server::~Server() {
  // Queued worker tasks still push completions and write the wakeup
  // pipe; wait for them before closing anything.
  workers_.waitIdle();
  for (auto& conn : connections_) closeFd(conn->fd);
  closeFd(reserve_fd_);
  closeFd(tcp_listen_fd_);
  closeFd(unix_listen_fd_);
  closeFd(wake_read_fd_);
  closeFd(wake_write_fd_);
  if (unix_bound_) ::unlink(config_.unixPath.c_str());
}

void Server::bind() {
  // TCP listener (unless the caller wants unix-only, signalled by
  // host == "none").
  if (config_.host != "none") {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      throw GroverError("bad listen address '" + config_.host +
                        "' (expected an IPv4 address)");
    }
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) {
      throw GroverError(cat("socket: ", std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    if (::bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw GroverError(cat("cannot bind ", config_.host, ":", config_.port,
                            ": ", std::strerror(errno)));
    }
    if (::listen(tcp_listen_fd_, 64) != 0) {
      throw GroverError(cat("listen: ", std::strerror(errno)));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port_ = ntohs(addr.sin_port);
    setNonBlocking(tcp_listen_fd_);
  }

  if (!config_.unixPath.empty()) {
    sockaddr_un addr{};
    if (config_.unixPath.size() >= sizeof(addr.sun_path)) {
      throw GroverError("unix socket path too long: " + config_.unixPath);
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.unixPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A socket file may be a live daemon or debris from a dead one.
    // Unlinking blindly would hijack a running server's listener, so
    // probe first: a successful connect() proves someone is serving;
    // only ECONNREFUSED (nobody behind the file) licenses the unlink.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      if (::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        ::close(probe);
        throw GroverError(cat("cannot bind unix socket ", config_.unixPath,
                              ": a daemon is already serving on it"));
      }
      const int probeErrno = errno;
      ::close(probe);
      if (probeErrno == ECONNREFUSED) {
        ::unlink(config_.unixPath.c_str());  // stale file, safe to reclaim
      }
      // ENOENT: nothing there. Anything else: leave the path alone and
      // let bind() report the truth.
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw GroverError(cat("socket(AF_UNIX): ", std::strerror(errno)));
    }
    unix_listen_fd_ = fd;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw GroverError(cat("cannot bind unix socket ", config_.unixPath,
                            ": ", std::strerror(errno)));
    }
    unix_bound_ = true;
    if (::listen(fd, 64) != 0) {
      throw GroverError(cat("listen(unix): ", std::strerror(errno)));
    }
    setNonBlocking(fd);
  }
  if (tcp_listen_fd_ < 0 && unix_listen_fd_ < 0) {
    throw GroverError("no listener configured (host=none and no --socket)");
  }
}

void Server::requestStop() noexcept {
  stop_requested_.store(true, std::memory_order_relaxed);
  wake();
}

void Server::wake() noexcept {
  // Async-signal-safe; the pipe is non-blocking, and a full pipe
  // already guarantees a pending wakeup.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

StatsCounters Server::stats() const {
  StatsCounters c;
  c.connectionsAccepted = accepted_.load();
  c.connectionsClosed = closed_.load();
  c.framesReceived = frames_.load();
  c.requestsAdmitted = admitted_total_.load();
  c.responsesSent = responses_.load();
  c.rejectedOverload = overloaded_.load();
  c.rejectedClientCredit = credit_rejected_.load();
  c.rejectedShutdown = shutdown_rejected_.load();
  c.protocolErrors = protocol_errors_.load();
  c.disconnectedMidRequest = disconnected_.load();
  c.idleTimeouts = idle_timeouts_.load();
  c.readBudgetExhausted = read_budget_exhausted_.load();
  c.acceptsShed = accepts_shed_.load();
  return c;
}

StatsFrame Server::statsFrame() const {
  StatsFrame f;
  f.uptimeMs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            started_at_)
          .count());
  f.admittedNow = admitted_.load();
  f.connectionsOpen = open_connections_.load();
  f.totals = stats();
  const service::ServiceStats svc = service_.stats();
  f.cancelled = svc.cancelled;
  f.measurements = svc.measurements;
  f.measurementsDropped = svc.measurementsDropped;
  f.measureQueueBacklog = svc.measureQueueBacklog;
  f.proofsRun = svc.proofsRun;
  f.proofsRefuted = svc.proofsRefuted;
  return f;
}

void Server::log(const std::string& message) {
  if (log_stream_ != nullptr) {
    *log_stream_ << "groverd: " << message << "\n" << std::flush;
  }
}

void Server::run() {
  Clock::time_point drainDeadline{};
  for (;;) {
    if (stop_requested_.load(std::memory_order_relaxed) && !draining_) {
      draining_ = true;
      drainDeadline = Clock::now() +
                      std::chrono::milliseconds(
                          std::max(config_.drainTimeoutMs, 0));
      closeFd(tcp_listen_fd_);
      closeFd(unix_listen_fd_);
      log(cat("draining: ", admitted_.load(), " request(s) in flight, ",
              connections_.size(), " connection(s) open"));
    }

    if (draining_) {
      // Close everything that has nothing left to say. In-flight
      // requests keep their connection until the response is flushed.
      for (std::size_t i = connections_.size(); i-- > 0;) {
        Connection& c = *connections_[i];
        if (c.inflight == 0 && !c.wantsWrite()) {
          closeConnection(c.connId);
        }
      }
      const bool timedOut =
          Clock::now() >= drainDeadline && config_.drainTimeoutMs >= 0;
      if (admitted_.load() == 0 && (connections_.empty() || timedOut)) {
        if (!connections_.empty()) {
          log(cat("drain timeout: force-closing ", connections_.size(),
                  " connection(s)"));
          while (!connections_.empty()) {
            closeConnection(connections_.back()->connId);
          }
        }
        break;
      }
    }

    // Build the poll set: listeners, wakeup pipe, connections. While
    // backing off from an fd-exhausted accept(), leave the listeners
    // out so a backlog we cannot serve does not spin the loop.
    std::vector<pollfd> fds;
    fds.push_back({wake_read_fd_, POLLIN, 0});
    const Clock::time_point pollNow = Clock::now();
    const bool acceptBackoff = pollNow < accept_backoff_until_;
    if (!acceptBackoff) {
      if (tcp_listen_fd_ >= 0) fds.push_back({tcp_listen_fd_, POLLIN, 0});
      if (unix_listen_fd_ >= 0) fds.push_back({unix_listen_fd_, POLLIN, 0});
    }
    const std::size_t firstConn = fds.size();
    // connId snapshot per connection pollfd: a handler can close a
    // connection and accept() can reuse its fd within this same round,
    // so an fd match alone does not prove the event's target is alive.
    std::vector<std::uint64_t> pollIds;
    pollIds.reserve(connections_.size());
    for (const auto& conn : connections_) {
      conn->answeredInline = 0;  // a new round: inline answers free credits
      short events = 0;
      // A poisoned connection only flushes its Error frame; a
      // half-closed one has nothing further to read.
      if (!conn->closeAfterFlush && !conn->readClosed) events |= POLLIN;
      if (conn->wantsWrite()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
      pollIds.push_back(conn->connId);
    }

    int timeoutMs = -1;
    if (config_.idleTimeoutMs > 0 && !connections_.empty()) {
      timeoutMs = config_.idleTimeoutMs;
      const Clock::time_point now = Clock::now();
      for (const auto& conn : connections_) {
        // In-flight work pins the connection: it is waiting on us, not
        // idle, however long the compile takes.
        if (conn->inflight > 0) continue;
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - conn->lastActivity)
                .count();
        timeoutMs = std::min<int>(
            timeoutMs,
            std::max<int>(0, config_.idleTimeoutMs -
                                 static_cast<int>(elapsed)));
      }
    }
    if (draining_) timeoutMs = timeoutMs < 0 ? 100 : std::min(timeoutMs, 100);
    if (acceptBackoff) {
      // Wake when the backoff expires so the listeners re-arm.
      const auto remain =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              accept_backoff_until_ - pollNow)
              .count() +
          1;
      const int cap = static_cast<int>(
          std::min<long long>(remain, std::numeric_limits<int>::max()));
      timeoutMs = timeoutMs < 0 ? cap : std::min(timeoutMs, cap);
    }

    const int ready = ::poll(fds.data(), fds.size(), timeoutMs);
    if (ready < 0 && errno != EINTR) {
      log(cat("poll failed: ", std::strerror(errno)));
      break;
    }

    // Wakeup pipe: drain it, then the completion queue.
    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    drainCompletions();

    for (std::size_t i = 1; i < firstConn; ++i) {
      if (fds[i].revents & POLLIN) acceptPending(fds[i].fd);
    }

    for (std::size_t i = firstConn; i < fds.size(); ++i) {
      const pollfd& p = fds[i];
      if (p.revents == 0) continue;
      const auto it = conn_by_fd_.find(p.fd);
      // Closed this round (and the fd possibly reused by accept):
      // the id snapshot taken at poll-set build time is the proof.
      if (it == conn_by_fd_.end() ||
          it->second->connId != pollIds[i - firstConn]) {
        continue;
      }
      Connection& conn = *it->second;
      const std::uint64_t connId = conn.connId;
      if (conn.readClosed) {
        // Half-closed peers only signal full departure (or error) now.
        if (p.revents & (POLLHUP | POLLERR)) {
          closeConnection(connId);
          continue;
        }
      } else if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
        handleReadable(conn);
      }
      // handleReadable may have closed it; re-find before writing.
      const auto again = conn_by_id_.find(connId);
      if (again == conn_by_id_.end()) continue;
      if (again->second->wantsWrite()) flushWrites(*again->second);
      // flushWrites may have closed it too (EPIPE, closeAfterFlush).
      const auto fin = conn_by_id_.find(connId);
      if (fin != conn_by_id_.end()) maybeCloseDrained(*fin->second);
    }

    // Idle sweep.
    if (config_.idleTimeoutMs > 0) {
      const Clock::time_point now = Clock::now();
      for (std::size_t i = connections_.size(); i-- > 0;) {
        Connection& c = *connections_[i];
        if (c.inflight > 0 || c.wantsWrite()) continue;
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - c.lastActivity)
                .count();
        if (elapsed >= config_.idleTimeoutMs) {
          ++idle_timeouts_;
          closeConnection(c.connId);
        }
      }
    }
  }
  log("drained, event loop exiting");
}

void Server::acceptPending(int listenFd) {
  for (;;) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors. Give the reserve fd back to the kernel,
        // accept the pending connection so it leaves the backlog, shed
        // it (the peer sees a clean close instead of hanging), then
        // re-arm the reserve — and back the listeners off so the loop
        // does not spin on a backlog it cannot serve.
        if (reserve_fd_ >= 0) {
          closeFd(reserve_fd_);
          const int victim = ::accept(listenFd, nullptr, nullptr);
          if (victim >= 0) {
            ::close(victim);
            ++accepts_shed_;
          }
          reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        }
        accept_backoff_until_ =
            Clock::now() +
            std::chrono::milliseconds(std::max(config_.acceptBackoffMs, 0));
        if (accept_errno_logged_ != errno) {
          accept_errno_logged_ = errno;
          log(cat("accept: ", std::strerror(errno),
                  "; shedding and backing off ", config_.acceptBackoffMs,
                  " ms"));
        }
        return;
      }
      // Non-transient failure: log once per distinct errno, not per
      // poll round.
      if (accept_errno_logged_ != errno) {
        accept_errno_logged_ = errno;
        log(cat("accept failed: ", std::strerror(errno)));
      }
      return;
    }
    accept_errno_logged_ = 0;
    adoptFd(fd);
  }
}

void Server::adoptFd(int fd) {
  setNonBlocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<Connection>(config_.maxPayload);
  conn->fd = fd;
  conn->connId = next_conn_id_++;
  conn->cancel = service::makeCancelToken();
  conn->slot = connections_.size();
  Connection* raw = conn.get();
  connections_.push_back(std::move(conn));
  conn_by_id_.emplace(raw->connId, raw);
  conn_by_fd_.emplace(fd, raw);
  ++open_connections_;
  ++accepted_;
}

void Server::handleReadable(Connection& conn) {
  if (conn.closeAfterFlush || conn.readClosed) return;
  char buf[16384];
  std::size_t readThisTick = 0;
  const std::size_t readBudget = config_.readBudgetBytes;
  for (;;) {
    std::size_t want = sizeof(buf);
    if (readBudget > 0) {
      if (readThisTick >= readBudget) {
        // Fairness: leave the rest in the kernel buffer and yield to
        // the other connections; the socket stays readable, so the
        // next poll round returns immediately to continue here.
        ++read_budget_exhausted_;
        break;
      }
      want = std::min(want, readBudget - readThisTick);
    }
    const ssize_t n = ::recv(conn.fd, buf, want, 0);
    if (n > 0) {
      conn.lastActivity = Clock::now();
      readThisTick += static_cast<std::size_t>(n);
      conn.reader.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      // Half-close (shutdown(SHUT_WR)): the peer finished sending but
      // may still be reading. Whole frames already buffered must be
      // served and their responses flushed before the close — falling
      // through to the frame loop below does exactly that.
      conn.readClosed = true;
      break;
    }
    // Hard error: the peer is gone in both directions. In-flight
    // requests finish in the service; their completions are dropped.
    closeConnection(conn.connId);
    return;
  }

  for (;;) {
    Frame frame;
    const FrameReader::Result r = conn.reader.next(frame);
    if (r == FrameReader::Result::NeedMore) break;
    if (r == FrameReader::Result::Error) {
      ++protocol_errors_;
      log(cat("protocol error on connection #", conn.connId, ": ",
              conn.reader.error()));
      respond(conn, FrameType::Error, 0, Status::Malformed,
              conn.reader.error());
      conn.closeAfterFlush = true;
      flushWrites(conn);
      return;
    }
    ++frames_;
    handleFrame(conn, std::move(frame));
    if (conn.closeAfterFlush) {
      flushWrites(conn);
      return;
    }
  }
}

void Server::handleFrame(Connection& conn, Frame frame) {
  switch (frame.type) {
    case FrameType::Request:
    case FrameType::AutoRequest: {
      if (draining_) {
        ++shutdown_rejected_;
        respond(conn, FrameType::Response, frame.id, Status::ShuttingDown,
                "error: daemon is shutting down");
        return;
      }
      // Per-connection credits first: a pipeliner past its own
      // allowance is rejected even while the global queue has room, so
      // one greedy client cannot starve the rest. Answers given on the
      // loop this round count: without them a pipeliner of warm hits
      // would take a whole read budget of answers per round.
      if (config_.clientCredits > 0 &&
          conn.inflight + conn.answeredInline >= config_.clientCredits) {
        ++overloaded_;
        ++credit_rejected_;
        respond(conn, FrameType::Response, frame.id, Status::Overloaded,
                cat("error: per-connection credit limit (",
                    config_.clientCredits, " in flight); retry later"));
        return;
      }
      if (answerInline(conn, frame)) return;
      // Global bound, with the last admitReserve slots held back for a
      // connection's FIRST outstanding request: even when pipeliners
      // collectively fill the queue, a polite serial client still
      // admits.
      const std::size_t cap = config_.maxAdmitted;
      const std::size_t reserve =
          cap > 0 ? std::min(config_.admitReserve, cap - 1) : 0;
      const std::size_t limit = conn.inflight == 0 ? cap : cap - reserve;
      if (admitted_.load() >= limit) {
        ++overloaded_;
        respond(conn, FrameType::Response, frame.id, Status::Overloaded,
                cat("error: admission queue full (", config_.maxAdmitted,
                    " in flight); retry later"));
        return;
      }
      ++admitted_;
      ++admitted_total_;
      ++conn.inflight;
      // Admission is activity: the idle clock must not tick against a
      // connection while its request crawls through a cold compile.
      conn.lastActivity = Clock::now();
      dispatchRequest(conn, frame.type, frame.id, std::move(frame.payload));
      return;
    }
    case FrameType::Stats:
      respond(conn, FrameType::StatsResponse, frame.id, Status::Ok,
              renderStatsPayload());
      return;
    case FrameType::StatsBinary:
      respond(conn, FrameType::StatsBinaryResponse, frame.id, Status::Ok,
              encodeStatsFrame(statsFrame()));
      return;
    case FrameType::Response:
    case FrameType::StatsResponse:
    case FrameType::StatsBinaryResponse:
    case FrameType::Error: {
      ++protocol_errors_;
      const std::string reason =
          cat("unexpected frame type ",
              static_cast<std::uint16_t>(frame.type), " from client");
      log(cat("protocol error on connection #", conn.connId, ": ", reason));
      respond(conn, FrameType::Error, frame.id, Status::Malformed, reason);
      conn.closeAfterFlush = true;
      return;
    }
  }
}

bool Server::answerInline(Connection& conn, const Frame& frame) {
  // Parsing a source-file line reads the file: never on the loop.
  if (namesSourceFile(frame.payload)) return false;
  const BatchEntry entry = parseRequest(frame.payload, config_.prove);
  if (!entry.valid) return false;  // the worker reports it
  std::string text;
  if (frame.type == FrameType::AutoRequest) {
    const std::optional<service::AutoResult> r =
        service_.answerAutoFromMemory(entry.request);
    if (!r.has_value()) return false;
    text = renderAutoResultLine(*r);
  } else {
    const service::ArtifactPtr a = service_.answerFromMemory(entry.request);
    if (a == nullptr) return false;
    text = renderResultLine(*a);
  }
  // Admitted and answered at once: it counts in requestsAdmitted but
  // never in admittedNow, and respond() bumps lastActivity as a
  // completion does.
  ++admitted_total_;
  ++conn.answeredInline;
  respond(conn, FrameType::Response, frame.id, Status::Ok, text);
  return true;
}

void Server::dispatchRequest(Connection& conn, FrameType type,
                             std::uint64_t id, std::string payload) {
  const std::uint64_t connId = conn.connId;
  workers_.submit([this, connId, id, type, cancel = conn.cancel,
                   payload = std::move(payload)]() mutable {
    Completion c;
    c.connId = connId;
    c.requestId = id;
    const BatchEntry entry = parseRequest(payload, config_.prove);
    if (entry.text.empty()) {
      c.status = Status::RequestFailed;
      c.text = "error: empty request";
    } else if (!entry.valid) {
      c.status = Status::RequestFailed;
      c.text = "error: " + entry.error;
    } else {
      try {
        // Status::Ok means "the request was served" — a negative
        // artifact ("failed: <diagnostic>") is a served verdict, same
        // as local serve-batch, and must not fail the client's batch.
        if (type == FrameType::AutoRequest) {
          const service::AutoResult r =
              service_.compileAuto(entry.request, cancel);
          c.status = Status::Ok;
          c.text = renderAutoResultLine(r);
        } else {
          const service::ArtifactPtr a = service_.run(entry.request, cancel);
          c.status = Status::Ok;
          c.text = renderResultLine(*a);
        }
      } catch (const std::exception& e) {
        c.status = Status::RequestFailed;
        c.text = std::string("error: ") + e.what();
      }
    }
    {
      std::lock_guard lock(completion_mutex_);
      completions_.push_back(std::move(c));
    }
    wake();
  });
}

void Server::drainCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard lock(completion_mutex_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    --admitted_;
    const auto it = conn_by_id_.find(c.connId);
    if (it == conn_by_id_.end()) {
      // Client disconnected mid-request: the work finished in the
      // service (or was abandoned at a stage boundary, if every waiter
      // was gone); only the reply has nowhere to go.
      ++disconnected_;
      continue;
    }
    Connection& conn = *it->second;
    if (conn.inflight > 0) --conn.inflight;
    // respond() bumps lastActivity: completion is activity too, so a
    // client pacing itself by our responses is not "idle".
    respond(conn, FrameType::Response, c.requestId, c.status, c.text);
    flushWrites(conn);
    // flushWrites may have closed the connection; if it survived and
    // its peer half-closed, this response may have been its last duty.
    const auto again = conn_by_id_.find(c.connId);
    if (again != conn_by_id_.end()) maybeCloseDrained(*again->second);
  }
}

void Server::respond(Connection& conn, FrameType type, std::uint64_t id,
                     Status status, std::string_view text) {
  appendStatusFrame(conn.writeBuf, type, id, status, text);
  ++responses_;
  conn.lastActivity = Clock::now();
}

void Server::flushWrites(Connection& conn) {
  while (conn.wantsWrite()) {
    const ssize_t n =
        ::send(conn.fd, conn.writeBuf.data() + conn.writeOff,
               conn.writeBuf.size() - conn.writeOff, MSG_NOSIGNAL);
    if (n > 0) {
      conn.writeOff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    closeConnection(conn.connId);  // EPIPE/ECONNRESET: peer is gone
    return;
  }
  if (conn.writeOff == conn.writeBuf.size()) {
    conn.writeBuf.clear();
    conn.writeOff = 0;
    if (conn.closeAfterFlush) closeConnection(conn.connId);
  }
}

void Server::maybeCloseDrained(Connection& conn) {
  if (conn.readClosed && conn.inflight == 0 && !conn.wantsWrite()) {
    closeConnection(conn.connId);
  }
}

void Server::closeConnection(std::uint64_t connId) {
  const auto it = conn_by_id_.find(connId);
  if (it == conn_by_id_.end()) return;
  Connection* conn = it->second;
  // Tell in-flight service work this waiter is gone; cold stages poll
  // the token and abandon the compile once EVERY waiter has cancelled.
  if (conn->cancel != nullptr) {
    conn->cancel->store(true, std::memory_order_relaxed);
  }
  conn_by_fd_.erase(conn->fd);
  conn_by_id_.erase(it);
  closeFd(conn->fd);
  // Swap-pop keeps close O(1); slot indices track the move.
  const std::size_t slot = conn->slot;
  if (slot + 1 != connections_.size()) {
    std::swap(connections_[slot], connections_.back());
    connections_[slot]->slot = slot;
  }
  connections_.pop_back();
  --open_connections_;
  ++closed_;
}

std::string Server::renderStatsPayload() {
  StatsRenderOptions opts;
  opts.policy = true;
  opts.measure = true;
  opts.prove = config_.prove;
  return renderStats(service_.stats(), opts) +
         renderServerLine(stats(), open_connections_.load());
}

}  // namespace grover::net
