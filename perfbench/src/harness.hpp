// Measurement harness shared by every perfbench workload: timing, the
// in-memory span recorder behind the traced run, failure accounting and
// small process helpers.
//
// Spans are recorded by the benchmark around calls into the library's
// public functions; nothing here reaches inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// Median of a copy of `values` (0 when empty).
double median(std::vector<double> values);

/// Nearest-rank percentile, q in [0, 1] (0 when empty).
double percentile(std::vector<double> values, double q);

/// CPUs in this process's affinity mask (at least 1).
unsigned affinity_cpus();

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Metric names allow letters, digits, '_', '.', '-': "[[16,2,4]]" -> "16_2_4".
std::string metric_token(const std::string& code_name);

/// One recorded interval. `group` is the pass or request the span belongs
/// to; per-layer rows aggregate per group first (see
/// `perfbench/spans_to_rows.py`).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::uint64_t group = 0;
  std::int64_t start_ns = 0;  ///< Relative to the trace epoch.
  std::int64_t end_ns = 0;
};

/// A per-group measurement that is not an interval (counter deltas,
/// ratios, byte totals), already in the unit its name states.
struct Value {
  std::string name;
  std::uint64_t group = 0;
  double value = 0.0;
};

/// In-memory trace of one benchmark run. Recording is switched per pass
/// (`set_enabled`), so one run interleaves traced and untraced passes.
/// Thread-safe: client threads of the serving workload record spans
/// concurrently.
class Trace {
 public:
  Trace();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  std::int64_t now_ns() const;
  std::uint64_t next_id();

  /// Group (pass or request) that new spans attach to by default.
  void set_group(std::uint64_t group) { group_ = group; }
  std::uint64_t group() const { return group_; }

  void add_span(Span span);
  void add_value(const std::string& name, std::uint64_t group, double value);

  /// RAII span around a call; nested scopes on one thread record their
  /// enclosing scope as parent. No-op when the trace is disabled.
  class Scope {
   public:
    Scope(Trace& trace, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    Span span_;
    bool active_;
  };

  /// Writes a meta line, then every span and value, one JSON object per line.
  void write_jsonl(const std::string& path, const std::string& meta_json) const;

 private:
  Clock::time_point epoch_;
  bool enabled_ = false;
  std::uint64_t group_ = 0;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<Value> values_;
};

/// Outcome accounting: every checked operation is attempted once; a
/// failed or mismatched one is reported on stderr and counted.
class Checks {
 public:
  /// Counts one attempted check, and a failure unless `ok`; returns `ok`.
  bool expect(bool ok, const std::string& what);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Scratch directory under the benchmark's build tree, removed on
/// destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& path);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
