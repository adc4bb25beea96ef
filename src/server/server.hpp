#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.hpp"
#include "server/session_cache.hpp"
#include "support/clock.hpp"

/// \file server.hpp
/// `tdbg::server::Server` — the concurrent trace-analysis daemon.
///
/// Threading model:
///
///   - one **reader** thread owns every socket: it accepts Unix-domain
///     and TCP connections, reassembles frames, decodes requests, and
///     *admits* them into a bounded pending queue;
///   - N **dispatcher** threads pop admitted requests, resolve the
///     trace through the `SessionCache`, and execute them; the heavy
///     artifact computation inside `analysis::Session` fans out onto
///     the existing `tdbg::exec` analysis pool exactly as it does for
///     a local debugger.
///
/// Admission control (never a silent hang):
///
///   - a full pending queue answers `Status::kOverloaded` immediately;
///   - a request whose `deadline_ms` elapses while still queued is
///     answered `Status::kTimeout` at dispatch, without computing;
///   - during drain, new requests get `Status::kShuttingDown` and new
///     connections are refused;
///   - `ping` is answered from the reader thread, bypassing the queue,
///     so liveness probes stay honest under load;
///   - an answer too large for one frame is sent as `kError`.
///
/// Shutdown ordering (graceful drain): stop accepting → reject new
/// requests → dispatchers finish every already-admitted request (all
/// responses are written) → sockets close → threads join.  Triggered
/// by the `shutdown` op, `shutdown()`, or the destructor.
///
/// Observability: `server.*` obs counters/gauges, telemetry `Span`s
/// per request phase (decode / dispatch / compute / encode) on the
/// Chrome-trace "tdbg" track, and flight-recorder sites for
/// connect/overload/timeout/shutdown.

namespace tdbg::server {

struct ServerOptions {
  /// Unix-domain socket path; empty = no Unix listener.
  std::string unix_path;
  /// TCP port on 127.0.0.1; -1 = no TCP listener, 0 = ephemeral
  /// (query the bound port with `tcp_port()`).
  int tcp_port = -1;
  /// Resident-session bound for the LRU cache.
  std::size_t max_sessions = 8;
  /// Admission bound: requests pending beyond this are rejected with
  /// `kOverloaded`.
  std::size_t max_pending = 64;
  /// Dispatcher threads (the per-request concurrency; artifact
  /// computation additionally parallelizes on the tdbg::exec pool).
  std::size_t dispatch_threads = 2;
  /// Test hook: every dispatched request sleeps this long before its
  /// deadline check, making queue-pressure paths (overload, timeout,
  /// drain) deterministic to exercise.  0 in production.
  support::TimeNs debug_dispatch_delay_ns = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);

  /// Drains and joins (equivalent to `shutdown(); wait()`).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and starts the reader + dispatcher threads.
  /// Throws `IoError` when a socket cannot be bound.
  void start();

  /// The TCP port actually bound (after `start()`), or -1.
  [[nodiscard]] int tcp_port() const { return bound_tcp_port_; }

  /// Initiates the graceful drain; returns immediately.  Idempotent.
  void shutdown();

  /// Blocks until the drain completes and the reader exits.
  void wait();

  /// True once `wait()` would return without blocking.
  [[nodiscard]] bool finished() const {
    return done_.load(std::memory_order_acquire);
  }

  /// Session-cache counters (also on the wire via `session_stats`).
  [[nodiscard]] SessionCache::Stats cache_stats() const {
    return cache_.stats();
  }

 private:
  struct Connection;
  using ConnPtr = std::shared_ptr<Connection>;

  struct PendingRequest {
    Request request;
    ConnPtr conn;
    support::TimeNs admit_ns = 0;
  };

  void reader_main();
  void dispatcher_main();
  void accept_on(int listen_fd, bool unix_socket);
  /// Reads everything available on `conn`; false = connection done.
  bool service_connection(const ConnPtr& conn);
  /// Decode + admit one frame body from `conn`.
  void admit_frame(const ConnPtr& conn, const std::vector<std::byte>& body);
  void handle_one(PendingRequest pending);
  void respond(const ConnPtr& conn, const Response& response);
  void close_all_connections();

  ServerOptions options_;
  SessionCache cache_;

  int unix_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int bound_tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};

  std::thread reader_;
  std::vector<std::thread> dispatchers_;
  std::map<int, ConnPtr> conns_;  ///< reader thread only

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> pending_;
  std::atomic<std::size_t> in_flight_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> done_{false};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::mutex join_mu_;

  class Metrics;
  std::unique_ptr<Metrics> metrics_;
};

}  // namespace tdbg::server
