// serve_mix: an in-process TcpServer on loopback over a warm store,
// driven by a closed-loop capacity phase (a fixed window of pipelined
// requests on one connection) and an open-loop phase at a fixed offered
// rate, with the bench_serve_load op mix; then the same mix through
// ProtocolService::handle_request on one thread.
//
// The timed stages of a pass (main_s, second_s) are the in-process ones:
// the sample requests, then the cacheable requests. Both loopback phases
// hand every request between threads, so on a shared VM their wall time
// follows how many vCPUs the host grants at the moment (3-4x apart from
// one run to the next); they give the serve_* figures and, traced, the
// serve.* rows.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compile/artifact.hpp"
#include "compile/service.hpp"
#include "compile/store.hpp"
#include "core/synth_cache.hpp"
#include "qec/code_library.hpp"
#include "serve/cache.hpp"
#include "serve/tcp_server.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace ftsp;

/// Requests per closed-loop phase.
constexpr std::size_t kClosedRequests = 8000;
/// Requests in flight on the closed-loop connection. A window (rather
/// than one request per client at a time) makes the phase bound by the
/// server's work, not by thread wake-up latency, which a shared host
/// stretches many times over. At most max_inflight_per_connection.
constexpr std::size_t kWindow = 32;
/// Offered open-loop rate: about half the capacity of 2 connections with
/// one request in flight each and 2 workers, on a 4-vCPU Linux VM.
constexpr double kOpenRate = 12000.0;
constexpr std::size_t kOpenRequests = 3000;  ///< 0.25 s at kOpenRate.
/// Mix requests replayed in-process per pass: its sample requests are
/// timed once, its cacheable ones (codes, info, rate, health) are timed
/// kCachedRounds times over, so both stages last a few tenths of a second.
constexpr std::size_t kReplayRequests = 24000;
constexpr std::size_t kCachedRounds = 6;
/// Every kSampleCheckStride-th sample response is re-derived in-process.
constexpr std::uint64_t kSampleCheckStride = 16;

enum Op : std::size_t { kCodes, kInfo, kSample, kRate, kHealth, kNumOps };
constexpr std::array<const char*, kNumOps> kOpNames = {
    "codes", "info", "sample", "rate", "health"};
/// The bench_serve_load mix per block of six: codes, info, 2x sample,
/// rate, health (order permuted per block from the workload seed).
constexpr std::array<Op, 6> kMixBlock = {kCodes, kInfo,  kSample,
                                         kSample, kRate, kHealth};

std::string request_text(Op op, std::uint64_t sample_seed) {
  switch (op) {
    case kCodes:
      return R"({"op":"codes"})";
    case kInfo:
      return R"({"v":2,"op":"info","code":"Steane"})";
    case kSample:
      return R"({"v":2,"op":"sample","code":"Steane","p":0.01,"shots":512,)"
             R"("seed":)" +
             std::to_string(sample_seed) + "}";
    case kRate:
      return R"({"v":2,"op":"rate","code":"Steane","p":0.003,"shots":4096,)"
             R"("seed":11})";
    default:
      return R"({"v":2,"op":"health"})";
  }
}

/// A generated request: its op, text and serial (unique per run, so
/// sample seeds never repeat and are never served from cache).
struct Request {
  Op op;
  std::uint64_t serial;
  std::string text;
};

/// Blocking loopback line client.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                             sizeof(address)) != 0) {
      throw std::runtime_error("serve_mix: cannot connect to loopback");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool send_all(const std::string& bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const auto sent = ::send(fd_, bytes.data() + written,
                               bytes.size() - written, MSG_NOSIGNAL);
      if (sent <= 0) {
        return false;
      }
      written += static_cast<std::size_t>(sent);
    }
    return true;
  }

  /// Next response line ("" on a closed connection).
  std::string read_line() {
    for (;;) {
      const auto newline = buffer_.find('\n', offset_);
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(offset_, newline - offset_);
        offset_ = newline + 1;
        if (offset_ > 65536) {
          buffer_.erase(0, offset_);
          offset_ = 0;
        }
        return line;
      }
      char chunk[16384];
      const auto got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) {
        return "";
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t offset_ = 0;
};

class ServeMix : public Workload {
 public:
  ~ServeMix() override { stop(); }

  void setup(Context& ctx) override {
    compile::ArtifactStore::detach_synth_cache();
    core::SynthCache::instance().clear();
    // One malloc arena for every thread: with one arena per thread, how
    // much of each a pass touches depends on thread timing, and the peak
    // RSS moved by 15% between runs of the same code.
    ::mallopt(M_ARENA_MAX, 1);
    workers_ = std::max(1u, ctx.nproc / 2);
    ctx.sizing = {"serve.closed.connections=1",
                  "serve.closed.window=" + std::to_string(kWindow),
                  "serve.open.connections=1",
                  "serve.open.threads=2",
                  "serve.workers=" + std::to_string(workers_)};

    store_dir_ = std::make_unique<TempDir>(ctx.scratch + "/store");
    compile::ArtifactStore store(store_dir_->path());
    store.put(compile::ProtocolCompiler().compile(qec::steane()));

    service_ = std::make_shared<compile::ProtocolService>();
    service_->load_store(store);
    cache_ = std::make_shared<serve::PayloadCache>(std::size_t{16} << 20);
    service_->set_payload_cache(cache_);
    reference_ = std::make_unique<compile::ProtocolService>();
    reference_->load_store(store);

    serve::TcpServerOptions options;
    options.port = 0;
    options.num_threads = workers_;
    auto service = service_;
    server_ = std::make_unique<serve::TcpServer>(
        [service]() -> std::shared_ptr<const compile::ProtocolService> {
          return service;
        },
        options);
    server_->start();
    closed_client_ = std::make_unique<Client>(server_->port());
    open_client_ = std::make_unique<Client>(server_->port());

    // Expected bytes of the deterministic requests come from the
    // cache-free reference service, not from the served one.
    expected_.clear();
    for (const Op op : {kCodes, kInfo, kRate, kHealth}) {
      expected_[op] = reference_->handle_request(request_text(op, 0));
    }
    // Warm-up: ten blocks of the mix in-process (fills the rate entry of
    // the payload cache). None over loopback: a round trip waits on
    // thread wake-ups, which a shared host stretches many times over.
    serial_base_ = mix_seed(ctx.seed, 0x5e) >> 24;
    next_serial_ = 0;
    for (const auto& request : generate(ctx, 60)) {
      check_response(ctx, request, service_->handle_request(request.text));
    }
  }

  void teardown(Context&) override { stop(); }

  PassTimes pass(Context& ctx, std::uint64_t) override {
    const bool traced = ctx.trace.enabled();
    const auto cache_before = cache_->stats();
    PassTimes times;

    // Closed loop: kWindow requests in flight on one connection; when
    // half the window has been answered, the next half goes out in one
    // write. Replies come back in request order.
    const auto closed = generate(ctx, kClosedRequests);
    std::vector<std::int64_t> sent_ns(traced ? closed.size() : 0);
    std::vector<Span> spans;
    spans.reserve(sent_ns.size());
    std::string batch;
    std::size_t sent = 0;
    const auto start = Clock::now();
    for (std::size_t received = 0; received < closed.size(); ++received) {
      if (sent - received <= kWindow / 2 && sent < closed.size()) {
        const std::int64_t now = traced ? ctx.trace.now_ns() : 0;
        batch.clear();
        for (; sent < closed.size() && sent < received + kWindow; ++sent) {
          batch += closed[sent].text;
          batch += '\n';
          if (traced) {
            sent_ns[sent] = now;
          }
        }
        closed_client_->send_all(batch);
      }
      std::string response = closed_client_->read_line();
      if (traced) {
        spans.push_back({std::string("serve.rtt_ms.") +
                             kOpNames[closed[received].op],
                         0, 0, 0, sent_ns[received], ctx.trace.now_ns()});
      }
      check_response(ctx, closed[received], std::move(response));
    }
    const double closed_s = seconds_since(start);
    if (!traced) {
      closed_s_.push_back(closed_s);
    }
    for (auto& span : spans) {
      span.id = ctx.trace.next_id();
      span.group = span.id;  // One group per request.
      ctx.trace.add_span(std::move(span));
    }

    // Open loop: request i is due at start + i / rate and is timed from
    // its due time; the sender writes whatever is due, the receiver
    // stamps replies (in-order per connection).
    const auto open_requests = generate(ctx, kOpenRequests);
    std::vector<Clock::time_point> due(open_requests.size());
    std::vector<double> lateness_ms;
    lateness_ms.reserve(open_requests.size());
    std::vector<double> latency_s(open_requests.size());
    const auto open_start = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < due.size(); ++i) {
      due[i] = open_start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                1e9 * static_cast<double>(i) / kOpenRate));
    }
    std::thread receiver([&] {
      for (std::size_t i = 0; i < open_requests.size(); ++i) {
        std::string response = open_client_->read_line();
        latency_s[i] = std::chrono::duration<double>(Clock::now() - due[i])
                           .count();
        check_response(ctx, open_requests[i], std::move(response));
      }
    });
    for (std::size_t i = 0; i < open_requests.size();) {
      std::this_thread::sleep_until(due[i]);
      const auto now = Clock::now();
      batch.clear();
      for (; i < open_requests.size() && due[i] <= now; ++i) {
        lateness_ms.push_back(
            std::chrono::duration<double, std::milli>(now - due[i]).count());
        batch += open_requests[i].text;
        batch += '\n';
      }
      open_client_->send_all(batch);
    }
    receiver.join();
    open_latency_s_.insert(open_latency_s_.end(), latency_s.begin(),
                           latency_s.end());

    // The same mix in-process on this thread: the service, payload
    // cache and wire encoding without the network. Sample requests
    // compute (their seeds never repeat); the others hit the cache.
    std::vector<Request> samples, cached;
    for (auto& request : generate(ctx, kReplayRequests)) {
      (request.op == kSample ? samples : cached).push_back(std::move(request));
    }
    times.main_s = replay(ctx, samples, 1);
    times.second_s = replay(ctx, cached, kCachedRounds);

    if (traced) {
      const auto cache_after = cache_->stats();
      const double hits =
          static_cast<double>(cache_after.hits - cache_before.hits);
      const double lookups =
          hits + static_cast<double>(cache_after.misses - cache_before.misses +
                                     cache_after.coalesced -
                                     cache_before.coalesced);
      ctx.trace.add_value("serve.cache.hit_ratio", ctx.trace.group(),
                          lookups > 0 ? hits / lookups : 0.0);
      ctx.trace.add_value("serve.lag_ms", ctx.trace.group(),
                          percentile(lateness_ms, 0.99));
      ctx.trace.add_value("serve.p99_ms", ctx.trace.group(),
                          1e3 * percentile(latency_s, 0.99));
      ctx.trace.add_value("serve.open.count", ctx.trace.group(),
                          static_cast<double>(latency_s.size()));
    }
    return times;
  }

  void finish(Context& ctx) override {
    // Re-derive the sampled subset of sample responses in-process.
    std::vector<std::pair<std::string, std::string>> samples;
    {
      const std::lock_guard<std::mutex> lock(samples_mutex_);
      samples.swap(sample_checks_);
    }
    for (const auto& [request, response] : samples) {
      ctx.checks.expect(reference_->handle_request(request) == response,
                        "sample response differs from handle_request: " +
                            request);
    }
  }

  std::vector<Figure> figures(
      const std::vector<PassTimes>& untraced) const override {
    auto figures =
        median_figures(untraced, "handle_sample_s", "handle_cached_s");
    figures.insert(
        figures.end(),
        {{"serve_qps", kClosedRequests / median(closed_s_), "1/s"},
            {"serve_p50_ms", 1e3 * median(open_latency_s_), "ms"},
            {"serve_p99_ms", 1e3 * percentile(open_latency_s_, 0.99), "ms"},
            {"serve_open_samples", static_cast<double>(open_latency_s_.size()),
             "count"},
            {"serve_offered_rate", kOpenRate, "1/s"}});
    return figures;
  }

 private:
  std::vector<Request> generate(Context& ctx, std::size_t count) {
    std::vector<Request> out;
    out.reserve(count);
    while (out.size() < count) {
      const std::uint64_t block = next_serial_ / kMixBlock.size();
      auto order = kMixBlock;
      // Fisher-Yates from the workload seed and the block number.
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        const std::size_t j = mix_seed(ctx.seed, block * 8 + i) % (i + 1);
        std::swap(order[i], order[j]);
      }
      const std::uint64_t serial = next_serial_++;
      const Op op = order[serial % kMixBlock.size()];
      out.push_back({op, serial, request_text(op, serial_base_ + serial)});
    }
    return out;
  }

  void check_response(Context& ctx, const Request& request,
                      std::string response) {
    const auto it = expected_.find(request.op);
    if (it != expected_.end()) {
      ctx.checks.expect(response == it->second,
                        std::string("served ") + kOpNames[request.op] +
                            " response differs from handle_request");
      return;
    }
    ctx.checks.expect(response.find("\"ok\":true") != std::string::npos,
                      "served sample failed: " + response.substr(0, 200));
    if (request.serial % kSampleCheckStride == 0) {
      const std::lock_guard<std::mutex> lock(samples_mutex_);
      sample_checks_.emplace_back(request.text, std::move(response));
    }
  }

  /// Seconds to answer `requests` `rounds` times over through
  /// handle_request on the served (cached) service; traced, one span and
  /// group per request.
  double replay(Context& ctx, const std::vector<Request>& requests,
                std::size_t rounds) {
    const bool traced = ctx.trace.enabled();
    const auto start = Clock::now();
    for (std::size_t round = 0; round < rounds; ++round) {
      for (const auto& request : requests) {
        const std::int64_t t0 = traced ? ctx.trace.now_ns() : 0;
        std::string response = service_->handle_request(request.text);
        if (traced) {
          const std::uint64_t id = ctx.trace.next_id();
          ctx.trace.add_span({std::string("compile.service.handle_us.") +
                                  kOpNames[request.op],
                              id, 0, id, t0, ctx.trace.now_ns()});
        }
        check_response(ctx, request, std::move(response));
      }
    }
    return seconds_since(start);
  }

  void stop() {
    closed_client_.reset();
    open_client_.reset();
    if (server_) {
      server_->stop();
      server_.reset();
    }
    service_.reset();
    reference_.reset();
    cache_.reset();
    store_dir_.reset();
  }

  unsigned workers_ = 1;
  std::unique_ptr<TempDir> store_dir_;
  std::shared_ptr<compile::ProtocolService> service_;
  std::unique_ptr<compile::ProtocolService> reference_;
  std::shared_ptr<serve::PayloadCache> cache_;
  std::unique_ptr<serve::TcpServer> server_;
  std::unique_ptr<Client> closed_client_;
  std::unique_ptr<Client> open_client_;
  std::map<Op, std::string> expected_;
  std::uint64_t serial_base_ = 0;
  std::uint64_t next_serial_ = 0;
  std::vector<double> closed_s_;  ///< Closed-loop phase, untraced passes.
  std::vector<double> open_latency_s_;
  std::mutex samples_mutex_;
  std::vector<std::pair<std::string, std::string>> sample_checks_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix() {
  return std::make_unique<ServeMix>();
}

}  // namespace perfbench
