#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "server/ops.hpp"
#include "support/error.hpp"
#include "telemetry/log.hpp"
#include "telemetry/span.hpp"

namespace tdbg::server {

namespace {

using telemetry::LogLevel;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError("tdbg.server: " + what + ": " + std::strerror(errno));
}

/// The trace path every session op's args lead with (the session key).
std::string request_path(const Request& request) {
  support::BinaryReader reader(request.args);
  return reader.get_string();
}

}  // namespace

/// One accepted connection.  The reader thread owns `assembler`; the
/// write side is shared between the reader (ping, admission rejects)
/// and the dispatchers (results), serialized by `write_mu` so frames
/// never interleave.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd = -1;
  FrameAssembler assembler;
  std::mutex write_mu;
  std::atomic<bool> open{true};
};

/// Cached `server.*` instrument handles — registry lookups take a
/// mutex, so resolve once per server.
class Server::Metrics {
 public:
  Metrics() {
    auto& reg = obs::MetricsRegistry::global();
    requests_ = &reg.counter("server.requests");
    responses_ = &reg.counter("server.responses");
    bytes_in_ = &reg.counter("server.bytes_in");
    bytes_out_ = &reg.counter("server.bytes_out");
    overload_ = &reg.counter("server.overload_rejections");
    timeouts_ = &reg.counter("server.timeouts");
    bad_frames_ = &reg.counter("server.bad_frames");
    errors_ = &reg.counter("server.errors");
    queue_depth_ = &reg.gauge("server.queue_depth");
    queue_peak_ = &reg.gauge("server.queue_depth_peak");
    connections_ = &reg.gauge("server.connections");
    for (std::size_t op = 0; op < kOps; ++op) {
      std::string name = "server.requests.";
      name += op_name(static_cast<Op>(op));
      per_op_[op] = &reg.counter(name);
    }
  }

  void on_request(Op op, std::size_t frame_bytes) {
    requests_->add(-1);
    per_op_[static_cast<std::size_t>(op) % kOps]->add(-1);
    bytes_in_->add(-1, frame_bytes);
  }
  void on_response(std::size_t frame_bytes) {
    responses_->add(-1);
    bytes_out_->add(-1, frame_bytes);
  }
  void on_overload() { overload_->add(-1); }
  void on_timeout() { timeouts_->add(-1); }
  void on_bad_frame() { bad_frames_->add(-1); }
  void on_error() { errors_->add(-1); }
  void queue_depth(std::size_t depth) {
    queue_depth_->set(-1, depth);
    queue_peak_->record_max(-1, depth);
  }
  void connections(std::size_t n) { connections_->set(-1, n); }

 private:
  static constexpr std::size_t kOps =
      static_cast<std::size_t>(Op::kShutdown) + 1;

  obs::Counter* requests_ = nullptr;
  obs::Counter* responses_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* overload_ = nullptr;
  obs::Counter* timeouts_ = nullptr;
  obs::Counter* bad_frames_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* queue_peak_ = nullptr;
  obs::Gauge* connections_ = nullptr;
  std::array<obs::Counter*, kOps> per_op_{};
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.max_sessions),
      metrics_(std::make_unique<Metrics>()) {}

Server::~Server() {
  shutdown();
  wait();
}

void Server::start() {
  if (started_.exchange(true)) return;

  if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw IoError("tdbg.server: unix socket path too long: " +
                    options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    unix_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listen_fd_ < 0) throw_errno("socket(AF_UNIX)");
    ::unlink(options_.unix_path.c_str());
    if (::bind(unix_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind " + options_.unix_path);
    }
    if (::listen(unix_listen_fd_, 64) != 0) throw_errno("listen (unix)");
    set_nonblocking(unix_listen_fd_);
  }

  if (options_.tcp_port >= 0) {
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind tcp port " + std::to_string(options_.tcp_port));
    }
    if (::listen(tcp_listen_fd_, 64) != 0) throw_errno("listen (tcp)");
    set_nonblocking(tcp_listen_fd_);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }

  TDBG_LOG(LogLevel::kInfo, "server.listen",
           static_cast<std::uint64_t>(bound_tcp_port_ < 0 ? 0
                                                          : bound_tcp_port_),
           static_cast<std::uint64_t>(options_.unix_path.empty() ? 0 : 1));

  const std::size_t n_dispatch = std::max<std::size_t>(
      1, options_.dispatch_threads);
  dispatchers_.reserve(n_dispatch);
  for (std::size_t i = 0; i < n_dispatch; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_main(); });
  }
  reader_ = std::thread([this] { reader_main(); });
}

void Server::shutdown() {
  if (!started_.load(std::memory_order_acquire)) {
    done_.store(true, std::memory_order_release);
    done_cv_.notify_all();
    return;
  }
  if (!draining_.exchange(true)) {
    TDBG_LOG(LogLevel::kInfo, "server.shutdown");
    queue_cv_.notify_all();
    // Wake the reader's poll.
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [this] {
      return done_.load(std::memory_order_acquire);
    });
  }
  // Reap the worker threads (idempotent; protects concurrent waiters).
  std::lock_guard<std::mutex> lock(join_mu_);
  if (reader_.joinable()) reader_.join();
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
}

// --- Reader thread ----------------------------------------------------------

void Server::reader_main() {
  std::vector<pollfd> fds;
  while (true) {
    // Drain finished: dispatchers idle, queue empty, draining flagged.
    if (draining_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(queue_mu_);
      if (pending_.empty() &&
          in_flight_.load(std::memory_order_acquire) == 0) {
        break;
      }
    }

    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    const bool accepting = !draining_.load(std::memory_order_acquire);
    if (accepting && unix_listen_fd_ >= 0) {
      fds.push_back({unix_listen_fd_, POLLIN, 0});
    }
    if (accepting && tcp_listen_fd_ >= 0) {
      fds.push_back({tcp_listen_fd_, POLLIN, 0});
    }
    const std::size_t first_conn = fds.size();
    std::vector<int> conn_fds;
    for (const auto& [fd, conn] : conns_) {
      if (conn->open.load(std::memory_order_acquire)) {
        fds.push_back({fd, POLLIN, 0});
        conn_fds.push_back(fd);
      }
    }

    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/50);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      char scratch[64];
      while (::read(wake_pipe_[0], scratch, sizeof(scratch)) > 0) {
      }
    }
    for (std::size_t i = 1; i < first_conn; ++i) {
      if ((fds[i].revents & POLLIN) != 0) {
        accept_on(fds[i].fd, fds[i].fd == unix_listen_fd_);
      }
    }
    for (std::size_t i = first_conn; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      auto it = conns_.find(conn_fds[i - first_conn]);
      if (it == conns_.end()) continue;
      if (!service_connection(it->second)) {
        TDBG_LOG(LogLevel::kDebug, "server.disconnect",
                 static_cast<std::uint64_t>(it->first));
        it->second->open.store(false, std::memory_order_release);
        conns_.erase(it);
        metrics_->connections(conns_.size());
      }
    }
  }

  close_all_connections();
  if (unix_listen_fd_ >= 0) ::close(unix_listen_fd_);
  if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  unix_listen_fd_ = tcp_listen_fd_ = -1;

  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.store(true, std::memory_order_release);
  }
  done_cv_.notify_all();
}

void Server::accept_on(int listen_fd, bool unix_socket) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: poll again later
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    conns_.emplace(fd, std::make_shared<Connection>(fd));
    metrics_->connections(conns_.size());
    TDBG_LOG(LogLevel::kDebug, "server.connect",
             static_cast<std::uint64_t>(fd),
             static_cast<std::uint64_t>(unix_socket ? 1 : 0));
  }
}

bool Server::service_connection(const ConnPtr& conn) {
  std::byte buf[16 * 1024];
  while (true) {
    const auto got = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (got == 0) return false;  // peer closed
    if (got < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    try {
      conn->assembler.feed({buf, static_cast<std::size_t>(got)});
      while (auto body = conn->assembler.next()) {
        admit_frame(conn, *body);
        if (!conn->open.load(std::memory_order_acquire)) return false;
      }
    } catch (const FormatError& e) {
      // Oversized/garbage length prefix: the stream is unrecoverable.
      metrics_->on_bad_frame();
      TDBG_LOG(LogLevel::kWarn, "server.badframe",
               static_cast<std::uint64_t>(conn->fd));
      respond(conn, make_error_response(0, Status::kBadRequest, e.what()));
      return false;
    }
  }
}

void Server::admit_frame(const ConnPtr& conn,
                         const std::vector<std::byte>& body) {
  Request request;
  {
    telemetry::Span span{std::string_view("server.decode")};
    try {
      request = decode_request(body);
    } catch (const FormatError& e) {
      metrics_->on_bad_frame();
      TDBG_LOG(LogLevel::kWarn, "server.badframe",
               static_cast<std::uint64_t>(conn->fd));
      respond(conn, make_error_response(0, Status::kBadRequest, e.what()));
      return;
    }
  }
  metrics_->on_request(request.op, body.size() + 4);

  // Control ops are answered from the reader so they stay responsive
  // when the queue is saturated — a ping during overload must succeed.
  if (request.op == Op::kPing) {
    respond(conn, Response{Status::kOk, request.id, {}});
    return;
  }
  if (request.op == Op::kShutdown) {
    respond(conn, Response{Status::kOk, request.id, {}});
    shutdown();
    return;
  }

  if (draining_.load(std::memory_order_acquire)) {
    respond(conn, make_error_response(request.id, Status::kShuttingDown,
                                      "server is draining"));
    return;
  }

  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (pending_.size() >= options_.max_pending) {
      metrics_->on_overload();
      TDBG_LOG(LogLevel::kWarn, "server.overload", request.id,
               static_cast<std::uint64_t>(pending_.size()));
      respond(conn, make_error_response(
                        request.id, Status::kOverloaded,
                        "pending queue full (" +
                            std::to_string(options_.max_pending) +
                            "); retry later"));
      return;
    }
    pending_.push_back(
        PendingRequest{std::move(request), conn, support::now_ns()});
    metrics_->queue_depth(pending_.size());
  }
  queue_cv_.notify_one();
}

// --- Dispatcher threads -----------------------------------------------------

void Server::dispatcher_main() {
  while (true) {
    PendingRequest pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() ||
               draining_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) {
        if (draining_.load(std::memory_order_acquire)) return;
        continue;
      }
      pending = std::move(pending_.front());
      pending_.pop_front();
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
      metrics_->queue_depth(pending_.size());
    }
    handle_one(std::move(pending));
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void Server::handle_one(PendingRequest pending) {
  if (options_.debug_dispatch_delay_ns > 0) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(options_.debug_dispatch_delay_ns));
  }

  // Queue-wait phase as a span: admission → dispatch.
  const support::TimeNs dispatched_ns = support::now_ns();
  const support::TimeNs waited_ns = dispatched_ns - pending.admit_ns;
  if (telemetry::SpanCollector::global().enabled()) {
    static const std::uint32_t kSite = telemetry::intern_site("server.dispatch");
    const support::TimeNs end_run = support::run_time_ns();
    const support::TimeNs start_run =
        end_run > waited_ns ? end_run - waited_ns : 0;
    telemetry::SpanCollector::global().add(kSite, -1, start_run, end_run);
  }

  const Request& request = pending.request;
  if (request.deadline_ms > 0 &&
      waited_ns > static_cast<support::TimeNs>(request.deadline_ms) *
                      1'000'000) {
    metrics_->on_timeout();
    TDBG_LOG(LogLevel::kWarn, "server.timeout", request.id,
             static_cast<std::uint64_t>(waited_ns / 1'000'000));
    respond(pending.conn,
            make_error_response(request.id, Status::kTimeout,
                                "deadline expired after " +
                                    std::to_string(waited_ns / 1'000'000) +
                                    " ms in queue"));
    return;
  }

  Response response;
  try {
    telemetry::Span span{std::string_view("server.compute")};
    const auto entry = cache_.open(request_path(request));
    const auto cache_stats = cache_.stats();
    const CacheView view{cache_stats.hits, cache_stats.misses,
                         cache_stats.evictions, cache_stats.resident};
    response = execute_on_session(request, *entry, view);
  } catch (const FormatError& e) {
    response = make_error_response(request.id, Status::kBadRequest, e.what());
  } catch (const std::exception& e) {
    response = make_error_response(request.id, Status::kError, e.what());
  }
  cap_response(response);
  if (response.status != Status::kOk) metrics_->on_error();
  respond(pending.conn, response);
}

// --- Writing ----------------------------------------------------------------

void Server::respond(const ConnPtr& conn, const Response& response) {
  std::vector<std::byte> frame;
  {
    telemetry::Span span{std::string_view("server.encode")};
    frame = encode_response(response);
  }
  if (!conn->open.load(std::memory_order_acquire)) return;

  std::lock_guard<std::mutex> lock(conn->write_mu);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const auto n = ::send(conn->fd, frame.data() + sent, frame.size() - sent,
                          MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{conn->fd, POLLOUT, 0};
      // While draining, a peer that leaves no room for a second is dropped.
      const bool room = ::poll(&pfd, 1, /*timeout_ms=*/1000) != 0;
      if (room || !draining_.load(std::memory_order_acquire)) continue;
    }
    if (n < 0 && errno == EINTR) continue;
    conn->open.store(false, std::memory_order_release);
    return;
  }
  metrics_->on_response(frame.size());
}

void Server::close_all_connections() {
  for (auto& [fd, conn] : conns_) {
    conn->open.store(false, std::memory_order_release);
  }
  conns_.clear();
  metrics_->connections(0);
}

}  // namespace tdbg::server
