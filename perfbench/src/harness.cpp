#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

namespace {

/// Innermost open Scope on this thread (parent of the next span).
thread_local std::uint64_t t_current_span = 0;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<unsigned>(count) : 1;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count a parent's memory inherited across fork and exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB.
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string metric_token(const std::string& code_name) {
  std::string out;
  for (const char c : code_name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == '-') {
      out += c;
    } else if (c == ',' && !out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  return out;
}

Trace::Trace() : epoch_(Clock::now()) {}

std::int64_t Trace::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint64_t Trace::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Trace::add_span(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void Trace::add_value(const std::string& name, std::uint64_t group,
                      double value) {
  if (!enabled_) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  values_.push_back({name, group, value});
}

Trace::Scope::Scope(Trace& trace, std::string name)
    : trace_(trace), active_(trace.enabled()) {
  if (!active_) {
    return;
  }
  span_.name = std::move(name);
  span_.id = trace_.next_id();
  span_.parent = t_current_span;
  span_.group = trace_.group();
  t_current_span = span_.id;
  span_.start_ns = trace_.now_ns();
}

Trace::Scope::~Scope() {
  if (!active_) {
    return;
  }
  span_.end_ns = trace_.now_ns();
  t_current_span = span_.parent;
  trace_.add_span(std::move(span_));
}

void Trace::write_jsonl(const std::string& path,
                        const std::string& meta_json) const {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace dump " + path);
  }
  out << std::setprecision(17);
  out << "{\"type\":\"meta\"," << meta_json << "}\n";
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& span : spans_) {
    out << "{\"type\":\"span\",\"name\":\"" << json_escape(span.name)
        << "\",\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"group\":" << span.group << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  for (const auto& value : values_) {
    out << "{\"type\":\"value\",\"name\":\"" << json_escape(value.name)
        << "\",\"group\":" << value.group << ",\"value\":" << value.value
        << "}\n";
  }
}

bool Checks::expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  failed_ += ok ? 0 : 1;
  return ok;
}

std::uint64_t Checks::attempted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t Checks::failed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

TempDir::TempDir(const std::string& path) : path_(path) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace perfbench
