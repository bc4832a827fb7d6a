// The workload interface main.cpp runs: set up several times, then
// passes until the time budget is spent, then untimed run-level checks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Run-wide state handed to every workload call.
struct Context {
  std::uint64_t seed = 0;
  unsigned nproc = 1;
  std::string scratch;  ///< Per-run scratch root (removed at exit).
  Trace trace;
  Checks checks;
  /// Thread and connection counts a workload chose ("name=value").
  std::vector<std::string> sizing;
};

/// The two timed stages of one pass, seconds. Their medians over the
/// untraced passes are the `main_s` and `second_s` end-to-end metrics.
struct PassTimes {
  double main_s = 0.0;
  double second_s = 0.0;
};

/// A workload-specific end-to-end figure under the name the workload
/// documents (e.g. `compile_s`, `serve_p99_ms`), printed as a text line.
struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Medians of the two stages under a workload's own figure names.
std::vector<Figure> median_figures(const std::vector<PassTimes>& untraced,
                                   const std::string& main_name,
                                   const std::string& second_name);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the state every pass needs. Called several times per run
  /// (each call timed; `teardown` runs untimed in between).
  virtual void setup(Context& ctx) = 0;
  virtual void teardown(Context&) {}
  /// One pass; `index` feeds the seed derivation, `ctx.trace` is enabled
  /// on traced passes and grouped by pass.
  virtual PassTimes pass(Context& ctx, std::uint64_t index) = 0;
  /// Untimed checks after the last pass (fixed-seed oracles).
  virtual void finish(Context&) {}
  /// Workload-named figures from the untraced passes.
  virtual std::vector<Figure> figures(
      const std::vector<PassTimes>& untraced) const = 0;
};

std::unique_ptr<Workload> make_compile_library();
std::unique_ptr<Workload> make_compile_device();
std::unique_ptr<Workload> make_simulate();
std::unique_ptr<Workload> make_serve_mix();

}  // namespace perfbench
