#include "serve/tcp_server.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/expose.hpp"
#include "obs/registry.hpp"
#include "serve/wire.hpp"
#include "util/fault_inject.hpp"

namespace ftsp::serve {

namespace {

/// errno as text; std::strerror may share one static buffer across
/// threads.
std::string errno_text(int error) {
  return std::generic_category().message(error);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

/// Out-of-band error line of the serving tier itself (connection
/// admission, shutdown) — no request envelope exists, so it is always
/// the v2 dialect: machine code + message.
std::string control_error_line(const char* code, const std::string& message) {
  Envelope envelope;
  envelope.version = 2;
  return render_error(envelope, code, message) + "\n";
}

/// `metric` is the full registered name ("serve.conn.accept.count", ...)
/// — spelled out at every call site so the append-only metric-name
/// registry stays greppable and ftsp_lint can extract it.
void count_connection_event(const char* metric, std::uint64_t n = 1) {
  if (obs::enabled()) {
    obs::Registry::instance().counter(metric).add(n);
  }
}

}  // namespace

struct TcpServer::Impl {
  // -------------------------------------------------------------------
  // Types
  // -------------------------------------------------------------------

  struct Connection {
    int fd = -1;
    std::string in;   ///< Bytes received, not yet newline-terminated.
    std::string out;  ///< Response bytes not yet accepted by the kernel.
    /// Per-connection response ordering: each parsed line gets the next
    /// sequence number; responses append to `out` strictly in sequence.
    std::uint64_t next_seq = 0;
    std::uint64_t next_flush = 0;
    std::map<std::uint64_t, std::string> ready;  ///< Out-of-order done.
    std::size_t inflight = 0;  ///< Parsed, response not yet in `ready`.
    std::chrono::steady_clock::time_point last_activity;
    bool want_read = true;
    bool want_write = false;
    bool eof = false;   ///< Peer half-closed; close once drained.
    /// Complete lines wait in `in` until the pipeline has room.
    bool held = false;
    bool dead = false;  ///< Marked for removal this iteration.
    /// Metrics-sidecar connection: bytes read are an HTTP request, the
    /// (single) response is a Prometheus text page, written-then-closed
    /// through the ordinary flush + drained-EOF machinery.
    bool metrics = false;
    bool metrics_responded = false;
  };

  struct Task {
    std::uint64_t conn_id;
    std::uint64_t seq;
    std::string line;
    /// When the line was parsed off the socket — the base of the
    /// per-request deadline, so queue wait counts against the budget.
    std::chrono::steady_clock::time_point arrival;
  };

  struct Completion {
    std::uint64_t conn_id;
    std::uint64_t seq;
    std::string response;
  };

  // Reserved event ids (connection ids start above them).
  static constexpr std::uint64_t kListenerId = 0;
  static constexpr std::uint64_t kWakeId = 1;
  static constexpr std::uint64_t kMetricsListenerId = 2;

  ServiceSnapshotFn snapshot;
  TcpServerOptions options;
  Stats* stats = nullptr;

  int listener = -1;
  int metrics_listener = -1;
  int wake_fd = -1;
  int epoll_fd = -1;

  std::uint64_t next_conn_id = 3;
  std::unordered_map<std::uint64_t, Connection> conns;

  std::mutex task_mutex;
  std::condition_variable task_cv;
  std::deque<Task> tasks;
  bool stopping = false;  ///< Guarded by task_mutex.

  std::mutex done_mutex;
  std::vector<Completion> done;

  std::vector<std::thread> workers;
  std::thread loop_thread;
  /// Event-loop only: set once `stop()` is seen; accepts and reads end.
  bool draining = false;

  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool started = false;  ///< Guarded by stop_mutex.
  bool stop_initiated = false;
  bool stopped = false;

  // -------------------------------------------------------------------
  // Setup / teardown
  // -------------------------------------------------------------------

  ~Impl() {
    if (listener >= 0) ::close(listener);
    if (metrics_listener >= 0) ::close(metrics_listener);
    if (wake_fd >= 0) ::close(wake_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    for (auto& [id, conn] : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }

  /// Binds one nonblocking AF_UNIX listener at `path`. A leftover socket
  /// file (a previous server that did not stop cleanly) is replaced;
  /// any other file at the path is an error, never silently deleted.
  static int bind_unix_listener(const std::string& path) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof(address.sun_path)) {
      throw std::runtime_error("serve: unix socket path too long: " + path);
    }
    path.copy(address.sun_path, path.size());
    struct stat existing {};
    if (::lstat(path.c_str(), &existing) == 0) {
      if (!S_ISSOCK(existing.st_mode)) {
        throw std::runtime_error("serve: refusing to replace non-socket " +
                                 path);
      }
      ::unlink(path.c_str());
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error("serve: socket() failed");
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0 ||
        ::listen(fd, 128) != 0) {
      ::close(fd);
      throw std::runtime_error("serve: cannot bind " + path);
    }
    set_nonblocking(fd);
    return fd;
  }

  /// Binds one nonblocking IPv4 listener and returns {fd, bound port}.
  static std::pair<int, std::uint16_t> bind_listener(const std::string& host,
                                                     std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error("serve_tcp: socket() failed");
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("serve_tcp: bad IPv4 host '" + host + "'");
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0) {
      ::close(fd);
      throw std::runtime_error("serve_tcp: cannot bind " + host + ":" +
                               std::to_string(port));
    }
    if (::listen(fd, 128) != 0) {
      ::close(fd);
      throw std::runtime_error("serve_tcp: listen() failed");
    }
    set_nonblocking(fd);

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
        0) {
      ::close(fd);
      throw std::runtime_error("serve_tcp: getsockname() failed");
    }
    return {fd, ntohs(bound.sin_port)};
  }

  /// Binds the request listener (unless `request_listener` is false)
  /// and the metrics sidecar, and sets up epoll. Returns {request port,
  /// metrics port}; 0 = no TCP port (unix socket, or disabled).
  std::pair<std::uint16_t, std::uint16_t> bind_and_listen(
      bool request_listener) {
    std::uint16_t bound_port = 0;
    if (request_listener && !options.unix_path.empty()) {
      listener = bind_unix_listener(options.unix_path);
    } else if (request_listener) {
      std::tie(listener, bound_port) =
          bind_listener(options.host, options.port);
    }
    std::uint16_t bound_metrics_port = 0;
    if (options.metrics_enabled) {
      std::tie(metrics_listener, bound_metrics_port) =
          bind_listener(options.metrics_host, options.metrics_port);
    }

    wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (wake_fd < 0) {
      throw std::runtime_error("serve_tcp: eventfd() failed");
    }
    epoll_fd = ::epoll_create1(0);
    if (epoll_fd < 0) {
      throw std::runtime_error("serve_tcp: epoll_create1() failed");
    }
    const auto watch = [this](int fd, std::uint64_t id) {
      if (fd >= 0 && !epoll_set(EPOLL_CTL_ADD, fd, id, /*read=*/true,
                                /*write=*/false)) {
        throw std::runtime_error("serve_tcp: epoll_ctl() failed: " +
                                 errno_text(errno));
      }
    };
    watch(listener, kListenerId);
    watch(metrics_listener, kMetricsListenerId);
    watch(wake_fd, kWakeId);
    return {bound_port, bound_metrics_port};
  }

  // -------------------------------------------------------------------
  // Readiness plumbing
  // -------------------------------------------------------------------

  /// EPOLL_CTL_ADD / EPOLL_CTL_MOD; false (errno set) on failure.
  bool epoll_set(int op, int fd, std::uint64_t id, bool read, bool write) {
    epoll_event event{};
    event.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
    event.data.u64 = id;
    return ::epoll_ctl(epoll_fd, op, fd, &event) == 0;
  }

  /// Registers a freshly accepted or adopted connection with the event
  /// loop. When epoll refuses the fd, the connection could never be
  /// polled — its client would hang with no error — so it is closed,
  /// counted as a rejection, and false is returned.
  bool watch_connection(int fd, std::uint64_t id) {
    if (epoll_set(EPOLL_CTL_ADD, fd, id, /*read=*/true, /*write=*/false)) {
      return true;
    }
    const int error = errno;
    std::fprintf(stderr, "ftsp-serve: cannot watch connection %llu: %s\n",
                 static_cast<unsigned long long>(id), errno_text(error).c_str());
    count_connection_event("serve.conn.reject.count");
    ::close(fd);
    errno = error;
    return false;
  }

  void set_interest(std::uint64_t id, Connection& conn, bool read,
                    bool write) {
    if (conn.want_read == read && conn.want_write == write) {
      return;
    }
    conn.want_read = read;
    conn.want_write = write;
    if (!epoll_set(EPOLL_CTL_MOD, conn.fd, id, read, write)) {
      std::fprintf(stderr, "ftsp-serve: closing connection %llu: "
                           "epoll_ctl() failed: %s\n",
                   static_cast<unsigned long long>(id),
                   errno_text(errno).c_str());
      conn.dead = true;
    }
  }

  struct Event {
    std::uint64_t id;
    bool readable;
    bool writable;
  };

  std::vector<Event> wait_events(int timeout_ms) {
    std::vector<Event> out;
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd, events, 64, timeout_ms);
    out.reserve(n > 0 ? static_cast<std::size_t>(n) : 0);
    for (int i = 0; i < n; ++i) {
      const bool readable =
          (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
      const bool writable = (events[i].events & EPOLLOUT) != 0;
      out.push_back({events[i].data.u64, readable, writable});
    }
    return out;
  }

  void wake() {
    const std::uint64_t one = 1;
    // Best effort: a saturated eventfd already guarantees a wakeup.
    [[maybe_unused]] const auto n = ::write(wake_fd, &one, sizeof(one));
  }

  void drain_wake_fd() {
    std::uint64_t count = 0;
    [[maybe_unused]] const auto n = ::read(wake_fd, &count, sizeof(count));
  }

  bool is_stopping() {
    std::lock_guard<std::mutex> lock(task_mutex);
    return stopping;
  }

  // -------------------------------------------------------------------
  // Workers
  // -------------------------------------------------------------------

  void worker_loop() {
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(task_mutex);
        task_cv.wait(lock, [&] { return !tasks.empty() || stopping; });
        if (tasks.empty()) {
          return;  // stopping && drained — graceful exit.
        }
        task = std::move(tasks.front());
        tasks.pop_front();
      }
      // Snapshot once per request: the request computes wholly against
      // one store generation even if a reload swaps mid-compute.
      const auto service = snapshot();
      // Server-imposed deadline, anchored at arrival. The service layer
      // may tighten it further from a v2 `deadline_ms` request field.
      const auto deadline =
          options.request_timeout.count() > 0
              ? task.arrival + options.request_timeout
              : std::chrono::steady_clock::time_point{};
      std::string response;
      // The `serve.compute` chaos site: a delay action holds the worker
      // (exercising deadlines and drain), a fail action simulates a
      // handler crash — answered as a well-formed v2 internal error
      // line, so even injected faults never corrupt the wire.
      if (util::fault::hit("serve.compute").fail) {
        Envelope envelope;
        envelope.version = 2;
        response = render_error(envelope, error_code::kInternal,
                                "injected fault at serve.compute");
      } else {
        response = service->handle_request(task.line, deadline);
      }
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        done.push_back({task.conn_id, task.seq, std::move(response)});
      }
      wake();
    }
  }

  // -------------------------------------------------------------------
  // Event-loop helpers
  // -------------------------------------------------------------------

  /// Accepts every pending connection on the request listener, or with
  /// `metrics` on the metrics sidecar's.
  void accept_ready(bool metrics) {
    for (;;) {
      const int fd =
          ::accept(metrics ? metrics_listener : listener, nullptr, nullptr);
      if (fd < 0) {
        return;  // EAGAIN (or transient error): back to the loop.
      }
      // The `serve.accept` chaos site: a fail action drops the freshly
      // accepted connection, simulating fd exhaustion / transient accept
      // errors. (Delays are applied too, but keep them short — this is
      // the event-loop thread.)
      if (!metrics && util::fault::hit("serve.accept").fail) {
        ::close(fd);
        continue;
      }
      if (conns.size() >= options.max_connections) {
        // Over the admission cap: tell the client *why* before closing
        // — a silent RST is indistinguishable from a network fault.
        stats->rejected_overloaded.fetch_add(1);
        count_connection_event("serve.conn.reject.count");
        const std::string reply =
            metrics ? "HTTP/1.0 503 Service Unavailable\r\n"
                      "Content-Length: 0\r\nConnection: close\r\n\r\n"
                    : control_error_line(
                          error_code::kOverloaded,
                          "connection limit reached (" +
                              std::to_string(options.max_connections) + ")");
        [[maybe_unused]] const auto n =
            ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      if (metrics || options.unix_path.empty()) {  // Not on AF_UNIX.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      const std::uint64_t id = next_conn_id++;
      if (watch_connection(fd, id)) {
        admit(id, fd, metrics);
      }
    }
  }

  /// Adds a connection already registered with epoll.
  void admit(std::uint64_t id, int fd, bool metrics) {
    stats->accepted.fetch_add(1);
    count_connection_event("serve.conn.accept.count");
    Connection conn;
    conn.fd = fd;
    conn.metrics = metrics;
    conn.last_activity = std::chrono::steady_clock::now();
    conns.emplace(id, std::move(conn));
  }

  /// Backpressure: a connection takes new request bytes only while it
  /// has room in its pipeline *and* its client keeps up with the
  /// responses. The pipeline counts finished responses that wait for an
  /// earlier one too: one slow request must not let the others pile up
  /// behind it. Without the output half, a slow reader would pile up
  /// responses until the `max_output_bytes` close.
  bool accepts_input(const Connection& conn) const {
    return conn.inflight + conn.ready.size() <
               options.max_inflight_per_connection &&
           conn.out.size() < options.max_output_bytes / 2;
  }

  /// Reads the (ignored) HTTP request off a metrics connection, then
  /// preloads one Prometheus page into `conn.out` and half-closes —
  /// the ordinary flush + drained-EOF machinery writes and reaps it.
  /// The request bytes are not parsed: every path scrapes the same
  /// registry, so GET /metrics, GET /, and HEAD all get the page.
  void metrics_read_ready(Connection& conn) {
    char chunk[4096];
    for (;;) {
      const auto got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        conn.last_activity = std::chrono::steady_clock::now();
        conn.in.append(chunk, static_cast<std::size_t>(got));
        if (conn.in.size() > options.max_line_bytes) {
          conn.dead = true;  // Absurd "HTTP request": not a scraper.
          return;
        }
        continue;
      }
      if (got == 0) {
        conn.eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        break;
      }
      conn.dead = true;
      return;
    }
    // Respond only after the header terminator (or peer EOF): writing
    // before the request has fully arrived risks an RST tearing down
    // the response bytes still in flight.
    const bool have_request =
        conn.in.find("\r\n\r\n") != std::string::npos ||
        conn.in.find("\n\n") != std::string::npos;
    if ((have_request || conn.eof) && !conn.metrics_responded) {
      conn.metrics_responded = true;
      if (obs::enabled()) {
        static obs::Counter& scrapes =
            obs::Registry::instance().counter("serve.metrics.scrape.count");
        scrapes.add(1);
      }
      conn.out = obs::render_http_metrics_response();
      conn.eof = true;  // Write-and-close (HTTP/1.0, Connection: close).
    }
  }

  /// Parses complete lines out of `conn.in` and queues them as compute
  /// tasks while the connection accepts input; the rest wait in
  /// `conn.in` (`held`) until responses drain. Returns false when the
  /// connection violated the protocol (oversized line) and must die.
  bool queue_lines(std::uint64_t id, Connection& conn) {
    std::size_t start = 0;
    std::size_t queued = 0;
    while (accepts_input(conn)) {
      const auto newline = conn.in.find('\n', start);
      if (newline == std::string::npos) {
        break;
      }
      std::string line = conn.in.substr(start, newline - start);
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      start = newline + 1;
      if (line.empty()) {
        continue;
      }
      stats->requests.fetch_add(1);
      ++conn.inflight;
      {
        std::lock_guard<std::mutex> lock(task_mutex);
        tasks.push_back({id, conn.next_seq++, std::move(line),
                         std::chrono::steady_clock::now()});
      }
      ++queued;
    }
    conn.in.erase(0, start);
    conn.held = !accepts_input(conn);
    const auto last_newline = conn.in.rfind('\n');
    const std::size_t tail = last_newline == std::string::npos
                                 ? conn.in.size()
                                 : conn.in.size() - last_newline - 1;
    if (tail > options.max_line_bytes) {
      std::fprintf(stderr,
                   "ftsp-serve: closing connection %llu: request line "
                   "exceeds %zu bytes\n",
                   static_cast<unsigned long long>(id),
                   options.max_line_bytes);
      return false;
    }
    if (queued == 1) {
      task_cv.notify_one();
    } else if (queued > 1) {
      task_cv.notify_all();
    }
    return true;
  }

  void read_ready(std::uint64_t id, Connection& conn) {
    char chunk[16384];
    while (accepts_input(conn)) {
      const auto got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        conn.last_activity = std::chrono::steady_clock::now();
        conn.in.append(chunk, static_cast<std::size_t>(got));
        if (!queue_lines(id, conn)) {
          conn.dead = true;
          return;
        }
        continue;
      }
      if (got == 0) {
        conn.eof = true;  // Half-close: finish what was submitted.
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;  // Drained for now.
      }
      conn.dead = true;  // Hard error (ECONNRESET, ...): nothing left
      return;            // to drain to this peer.
    }
  }

  /// Pushes `conn.out` into the kernel until it blocks. Returns false
  /// on a dead peer.
  bool flush(Connection& conn) {
    while (!conn.out.empty()) {
      const auto sent =
          ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (sent > 0) {
        conn.out.erase(0, static_cast<std::size_t>(sent));
        conn.last_activity = std::chrono::steady_clock::now();
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;  // Kernel buffer full; EPOLLOUT will resume us.
      }
      return false;  // Peer went away.
    }
    return true;
  }

  void apply_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      batch.swap(done);
    }
    for (auto& completion : batch) {
      const auto it = conns.find(completion.conn_id);
      if (it == conns.end()) {
        continue;  // Connection closed while computing; drop response.
      }
      Connection& conn = it->second;
      --conn.inflight;
      conn.ready.emplace(completion.seq, std::move(completion.response));
      // Append every response that is next in sequence — responses on
      // one connection always flush in request arrival order.
      for (auto ready_it = conn.ready.find(conn.next_flush);
           ready_it != conn.ready.end();
           ready_it = conn.ready.find(conn.next_flush)) {
        conn.out += ready_it->second;
        conn.out += '\n';
        conn.ready.erase(ready_it);
        ++conn.next_flush;
      }
    }
  }

  /// Recomputes per-connection readiness interest and enforces the
  /// output-overflow and drained-EOF close conditions.
  void update_connection_states() {
    for (auto& [id, conn] : conns) {
      if (conn.dead) {
        continue;
      }
      if (!conn.out.empty() && !flush(conn)) {
        conn.dead = true;
        continue;
      }
      if (conn.out.size() > options.max_output_bytes) {
        std::fprintf(stderr,
                     "ftsp-serve: closing connection %llu: %zu response "
                     "bytes pending, client not reading (limit %zu)\n",
                     static_cast<unsigned long long>(id), conn.out.size(),
                     options.max_output_bytes);
        stats->closed_overflow.fetch_add(1);
        conn.dead = true;
        continue;
      }
      if (conn.eof && !conn.held && conn.inflight == 0 &&
          conn.ready.empty() && conn.out.empty()) {
        conn.dead = true;  // Fully drained after peer half-close.
        continue;
      }
      if (conn.held && !draining && accepts_input(conn) &&
          !queue_lines(id, conn)) {
        conn.dead = true;
        continue;
      }
      // Input backpressure: stop reading while this connection has a
      // full pipeline or a backlog of unread responses; resume as they
      // drain. A drain reads nothing.
      const bool read = !draining && !conn.eof && accepts_input(conn);
      set_interest(id, conn, read, !conn.out.empty());
    }
  }

  void reap_dead() {
    std::uint64_t reaped = 0;
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->second.dead) {
        ::close(it->second.fd);
        it = conns.erase(it);
        ++reaped;
      } else {
        ++it;
      }
    }
    if (reaped > 0) {
      count_connection_event("serve.conn.reap.count", reaped);
    }
  }

  void close_idle() {
    if (options.idle_timeout.count() <= 0) {
      return;
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, conn] : conns) {
      if (!conn.dead && conn.inflight == 0 && conn.ready.empty() &&
          conn.out.empty() && now - conn.last_activity > options.idle_timeout) {
        stats->closed_idle.fetch_add(1);
        conn.dead = true;
      }
    }
  }

  // -------------------------------------------------------------------
  // Event loop
  // -------------------------------------------------------------------

  void loop() {
    for (;;) {
      const int timeout_ms = draining ? 20 : 200;
      const std::vector<Event> events = wait_events(timeout_ms);
      for (const Event& event : events) {
        if (event.id == kWakeId) {
          drain_wake_fd();
          continue;
        }
        if (event.id == kListenerId || event.id == kMetricsListenerId) {
          if (!draining) {
            accept_ready(/*metrics=*/event.id == kMetricsListenerId);
          }
          continue;
        }
        const auto it = conns.find(event.id);
        if (it == conns.end()) {
          continue;  // Stale event for a just-closed connection.
        }
        if (event.readable && !it->second.dead && !draining) {
          if (it->second.metrics) {
            metrics_read_ready(it->second);
          } else {
            read_ready(event.id, it->second);
          }
        }
        // Writes are retried for every connection below.
      }

      apply_completions();
      close_idle();

      if (!draining && is_stopping()) {
        // Graceful drain: no new connections, no new request lines —
        // existing in-flight work runs to completion and flushes.
        // Unwatching the listeners (and dropping read interest below)
        // keeps pending connects and unread bytes from spinning the
        // level-triggered wait while the drain runs.
        draining = true;
        for (const int fd : {listener, metrics_listener}) {
          if (fd >= 0) {
            ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
          }
        }
      }

      update_connection_states();
      reap_dead();

      if (draining) {
        bool drained = true;
        for (const auto& [id, conn] : conns) {
          if (conn.inflight != 0 || !conn.ready.empty() ||
              !conn.out.empty()) {
            drained = false;
            break;
          }
        }
        bool tasks_empty;
        {
          std::lock_guard<std::mutex> lock(task_mutex);
          tasks_empty = tasks.empty();
        }
        if (drained && tasks_empty) {
          for (auto& [id, conn] : conns) {
            conn.dead = true;
          }
          reap_dead();
          return;
        }
      }
    }
  }
};

TcpServer::TcpServer(ServiceSnapshotFn service, TcpServerOptions options)
    : TcpServer(std::move(service), std::move(options),
                /*request_listener=*/true) {}

TcpServer::TcpServer(ServiceSnapshotFn service, TcpServerOptions options,
                     bool request_listener)
    : impl_(std::make_unique<Impl>()) {
  if (!service) {
    throw std::runtime_error("serve_tcp: null service snapshot provider");
  }
  impl_->snapshot = std::move(service);
  impl_->options = std::move(options);
  impl_->stats = &stats_;
  std::tie(port_, metrics_port_) = impl_->bind_and_listen(request_listener);
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::start() {
  // Under stop_mutex, so a `stop()` that comes first (a signal handled
  // before start-up finished) leaves the server never started, and a
  // later `stop()` always sees the threads it must join.
  std::lock_guard<std::mutex> lock(impl_->stop_mutex);
  if (impl_->started || impl_->stop_initiated) {
    return;
  }
  impl_->started = true;
  std::size_t threads = impl_->options.num_threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  impl_->workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
  impl_->loop_thread = std::thread([this] { impl_->loop(); });
}

void TcpServer::adopt(int fd) {
  {
    std::lock_guard<std::mutex> lock(impl_->stop_mutex);
    if (impl_->started || impl_->stop_initiated) {
      ::close(fd);
      throw std::runtime_error("serve: adopt() is only valid before start()");
    }
  }
  set_nonblocking(fd);
  const std::uint64_t id = impl_->next_conn_id++;
  if (!impl_->watch_connection(fd, id)) {
    throw std::runtime_error("serve: cannot adopt fd " + std::to_string(fd) +
                             ": " + errno_text(errno));
  }
  impl_->admit(id, fd, /*metrics=*/false);
}

void TcpServer::stop() {
  bool started = false;
  {
    std::lock_guard<std::mutex> lock(impl_->stop_mutex);
    if (impl_->stop_initiated) {
      return;  // Already stopped (or stopping on another thread).
    }
    impl_->stop_initiated = true;
    started = impl_->started;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->task_mutex);
    impl_->stopping = true;
  }
  impl_->task_cv.notify_all();
  impl_->wake();
  if (started) {
    impl_->loop_thread.join();
    for (auto& worker : impl_->workers) {
      worker.join();
    }
  }
  if (impl_->listener >= 0 && !impl_->options.unix_path.empty()) {
    ::close(impl_->listener);
    impl_->listener = -1;
    ::unlink(impl_->options.unix_path.c_str());
  }
  {
    std::lock_guard<std::mutex> lock(impl_->stop_mutex);
    impl_->stopped = true;
  }
  impl_->stop_cv.notify_all();
}

void TcpServer::wait() {
  std::unique_lock<std::mutex> lock(impl_->stop_mutex);
  impl_->stop_cv.wait(lock, [&] { return impl_->stopped; });
}

std::size_t serve_lines(TcpServer::ServiceSnapshotFn service, std::istream& in,
                        std::ostream& out, TcpServerOptions options,
                        const std::function<void(const TcpServer&)>& on_ready) {
  TcpServer server(std::move(service), std::move(options),
                   /*request_listener=*/false);
  if (on_ready) {
    on_ready(server);
  }
  int ends[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, ends) != 0) {
    throw std::runtime_error("serve: socketpair() failed");
  }
  const int client = ends[1];
  try {
    server.adopt(ends[0]);
  } catch (...) {
    ::close(client);
    throw;
  }
  server.start();

  // `in` may be tied to `out` (std::cin is tied to std::cout): reading
  // would then flush `out` from this thread while the pump below writes
  // it. Untie for the session; every response chunk is flushed anyway.
  std::ostream* const tied = in.tie(nullptr);
  std::exception_ptr output_error;
  std::size_t answered = 0;  // Response lines written to `out`.
  std::thread responses([&out, &output_error, &answered, client] {
    try {
      char chunk[16384];
      for (;;) {
        const auto got = ::recv(client, chunk, sizeof(chunk), 0);
        if (got < 0 && errno == EINTR) {
          continue;
        }
        if (got <= 0) {
          return;  // The server closed the connection.
        }
        answered +=
            static_cast<std::size_t>(std::count(chunk, chunk + got, '\n'));
        out.write(chunk, got);
        out.flush();
        if (!out) {
          throw std::runtime_error("serve: cannot write responses");
        }
      }
    } catch (...) {
      output_error = std::current_exception();
      // Fails the feeder's next send, so it stops feeding a connection
      // nobody reads.
      ::shutdown(client, SHUT_RDWR);
    }
  });
  // One line per send, so an interactive client gets each answer as
  // soon as it is computed. A send error means the server closed the
  // connection (an oversized line, an idle timeout): stop feeding it.
  const auto send_all = [client](const std::string& bytes) {
    for (std::size_t sent = 0; sent < bytes.size();) {
      const auto n = ::send(client, bytes.data() + sent, bytes.size() - sent,
                            MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  };
  std::size_t fed = 0;  // Request lines sent; each is owed one response.
  bool cut_off = false;
  std::exception_ptr input_error;
  try {
    std::string line;
    while (std::getline(in, line)) {
      // The server drops a trailing CR and skips empty lines; doing the
      // same here keeps `fed` equal to the number of responses owed.
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      if (line.empty()) {
        continue;
      }
      line += '\n';
      if (!send_all(line)) {
        cut_off = true;
        break;
      }
      ++fed;
    }
  } catch (...) {
    input_error = std::current_exception();
  }
  ::shutdown(client, SHUT_WR);
  responses.join();
  ::close(client);
  in.tie(tied);
  server.stop();
  for (const auto& error : {input_error, output_error}) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  // The server closes the stream early only when it gives up on it (a
  // line over `max_line_bytes`, a response backlog over
  // `max_output_bytes`, the idle timeout): output is cut short, which
  // must not pass for a clean end of input.
  if (cut_off || answered != fed) {
    throw std::runtime_error(
        "serve: output cut short: the server closed the stream after " +
        std::to_string(answered) + " response(s), " +
        (cut_off ? "before the input ended"
                 : "with " + std::to_string(fed) + " owed"));
  }
  return server.stats().requests.load();
}

}  // namespace ftsp::serve
