#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>

#include "compile/service.hpp"

namespace ftsp::serve {

struct TcpServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read back via `port()`.
  std::uint16_t port = 0;
  /// Non-empty: listen on this AF_UNIX socket path instead of
  /// host:port. A stale socket file at the path is replaced at bind;
  /// `stop()` removes the file.
  std::string unix_path;
  /// Accepted-connection cap. A connection beyond the cap receives one
  /// v2 `overloaded` error line and is closed immediately.
  std::size_t max_connections = 256;
  /// Compute worker threads (0 = hardware concurrency).
  std::size_t num_threads = 0;
  /// Idle connections (no bytes received, nothing in flight) are closed
  /// after this long. 0 disables the idle reaper.
  std::chrono::milliseconds idle_timeout{0};
  /// Per-request deadline, measured from request *arrival* (so time
  /// spent queued behind other work counts). An expired request answers
  /// with the `deadline_exceeded` error code and — for compute ops —
  /// cooperatively cancels mid-estimate, freeing its worker. 0 disables;
  /// a v2 request's `deadline_ms` field can tighten (never extend) it.
  std::chrono::milliseconds request_timeout{0};
  /// Backpressure, output side: reading from a connection pauses while
  /// half of this is un-flushed response bytes (a slow reader); one
  /// whose backlog still exceeds it (client not reading) is closed
  /// loudly.
  std::size_t max_output_bytes = 8u << 20;
  /// A single request line longer than this is rejected (connection
  /// closed) — bounds per-connection input memory.
  std::size_t max_line_bytes = 1u << 20;
  /// Backpressure, input side: reading from a connection pauses while
  /// it has this many requests queued, computing or waiting for an
  /// earlier response; resumes as responses flush.
  std::size_t max_inflight_per_connection = 64;
  /// Optional plaintext metrics sidecar: when enabled, a second
  /// listener on metrics_host:metrics_port answers every HTTP request
  /// with one Prometheus text rendering of the process metric registry
  /// (see src/obs/expose.hpp) and closes — scrape with curl or a
  /// Prometheus scrape job, no JSON protocol handshake needed. Served
  /// by the same event loop; read back the bound port via
  /// `TcpServer::metrics_port()` when 0.
  bool metrics_enabled = false;
  std::string metrics_host = "127.0.0.1";
  std::uint16_t metrics_port = 0;
};

/// The one serving core for the line protocol: one epoll event-loop
/// thread multiplexing every connection, plus a pool of compute workers.
/// Connections arrive on an IPv4 or AF_UNIX listener, or are handed in
/// already connected through `adopt` (how `serve_lines` serves a stream
/// pair).
///
/// Responses to one connection are written in request arrival order
/// (per-connection sequence numbers), while requests from different
/// connections compute concurrently.
///
/// The service is taken as a *snapshot provider* rather than a
/// reference: each request grabs the current `shared_ptr` once and
/// computes entirely against it, which is what makes hot store reloads
/// (see ReloadableService) invisible to in-flight requests.
class TcpServer {
 public:
  using ServiceSnapshotFn =
      std::function<std::shared_ptr<const compile::ProtocolService>()>;

  struct Stats {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected_overloaded{0};
    std::atomic<std::uint64_t> closed_idle{0};
    std::atomic<std::uint64_t> closed_overflow{0};
    std::atomic<std::uint64_t> requests{0};
  };

  /// Binds and listens (throws std::runtime_error on failure) but does
  /// not serve until `start()`.
  TcpServer(ServiceSnapshotFn service, TcpServerOptions options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Actual bound port (resolves port 0 requests); 0 on a unix socket.
  std::uint16_t port() const { return port_; }

  /// Actual bound metrics-sidecar port; 0 when the sidecar is disabled.
  std::uint16_t metrics_port() const { return metrics_port_; }

  /// Starts the event loop and worker threads (idempotent; a no-op
  /// once `stop()` has been called).
  void start();

  /// Serves an already-connected stream socket as one more connection,
  /// taking ownership of `fd` (not subject to `max_connections`). Valid
  /// only before `start()`. Throws std::runtime_error — after closing
  /// `fd` — when called later or when the event loop cannot watch `fd`
  /// (e.g. a regular file).
  void adopt(int fd);

  /// Graceful shutdown: stops accepting and stops reading new request
  /// lines, drains every in-flight compute and queued response, closes
  /// every connection, joins all threads. In-flight requests are never
  /// dropped; unparsed partial input is. Idempotent; also run by the
  /// destructor.
  void stop();

  /// Blocks until `stop()` is called from another thread (or a fatal
  /// event-loop error).
  void wait();

  const Stats& stats() const { return stats_; }

 private:
  friend std::size_t serve_lines(
      ServiceSnapshotFn, std::istream&, std::ostream&, TcpServerOptions,
      const std::function<void(const TcpServer&)>&);
  /// `request_listener` false: no request listener is bound, so
  /// connections arrive only through `adopt` (the metrics sidecar
  /// still binds when enabled).
  TcpServer(ServiceSnapshotFn service, TcpServerOptions options,
            bool request_listener);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  Stats stats_;
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;
};

/// Serves newline-delimited JSON requests read from `in`, writing the
/// responses to `out` in request order (deterministic output for a
/// given input at any thread count), until `in` ends and every
/// response is written. The streams become one connection of a
/// TcpServer, bridged over a socketpair — epoll cannot watch a regular
/// file given as stdin — so stdin serving shares the event loop's
/// ordering, deadlines, line bound and backpressure. A final line
/// without a newline is still answered. The listener fields of
/// `options` (host, port, unix_path) are unused. `on_ready`, if set, is
/// called once the server is bound (e.g. to report `metrics_port()`),
/// before the first line is read. Returns the number of requests
/// served; throws std::runtime_error when the output is cut short — the
/// server gave up on the stream (a line over `max_line_bytes`, a
/// response backlog over `max_output_bytes`, the idle timeout) or `out`
/// failed.
std::size_t serve_lines(
    TcpServer::ServiceSnapshotFn service, std::istream& in, std::ostream& out,
    TcpServerOptions options = {},
    const std::function<void(const TcpServer&)>& on_ready = {});

}  // namespace ftsp::serve
