// perfbench: the compile -> store -> serve benchmark. Runs one workload
// for a time budget and prints its metrics; the last stdout line is one
// JSON object {"correct","attempted","failed","metrics"}.
//
//   ftsp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--commit ID]
//
// Scratch stores go under .bench_build/tmp and span dumps under
// .bench_build/traces, relative to the working directory.
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// interleaves traced and untraced passes and dumps the spans, the
// library counters and the tracing overhead as JSON lines, which
// perfbench/spans_to_rows.py turns into the per-layer rows.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include "compile/store.hpp"
#include "harness.hpp"
#include "workload.hpp"

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::vector<Figure> median_figures(const std::vector<PassTimes>& untraced,
                                   const std::string& main_name,
                                   const std::string& second_name) {
  std::vector<double> main_s, second_s;
  for (const auto& t : untraced) {
    main_s.push_back(t.main_s);
    second_s.push_back(t.second_s);
  }
  return {{main_name, median(main_s), "s"},
          {second_name, median(second_s), "s"}};
}

namespace {

/// Set-up runs at least kMinSetups times, and again while the set-ups so
/// far took under kSetupBudgetS in total (at most kMaxSetups times), so a
/// cheap set-up is timed often enough for a steady median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 60;
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kMinPasses = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
};

constexpr const char* kScratchDir = ".bench_build/tmp";
constexpr const char* kTraceDir = ".bench_build/traces";

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: ftsp_perfbench --workload "
               "compile_library|compile_device|simulate|serve_mix --seed N "
               "--seconds S --trace 0|1 [--commit ID]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (args.workload.empty() || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    usage("--workload, --seconds > 0 and --trace 0|1 are required");
  }
  return args;
}

std::string json_number(double value) {
  char text[40];
  std::snprintf(text, sizeof(text), "%.12g", value);
  return text;
}

int run(const Args& args) {
  // An inherited fault plan, cache cap, CNF dump or disabled telemetry
  // would skew or blank the numbers.
  for (const char* var : {"FTSP_FAULTS", "FTSP_FAULTS_SEED",
                          "FTSP_SAT_CACHE_MAX", "FTSP_SAT_DUMP_DIR",
                          "FTSP_OBS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  const std::map<std::string, std::function<std::unique_ptr<Workload>()>>
      factories = {{"compile_library", make_compile_library},
                   {"compile_device", make_compile_device},
                   {"simulate", make_simulate},
                   {"serve_mix", make_serve_mix}};
  const auto factory = factories.find(args.workload);
  if (factory == factories.end()) {
    usage("unknown workload " + args.workload);
  }

  Context ctx;
  ctx.seed = args.seed;
  ctx.nproc = affinity_cpus();
  ctx.scratch = std::string(kScratchDir) + "/" + args.workload + "-" +
                std::to_string(::getpid());
  const TempDir scratch(ctx.scratch);
  auto workload = factory->second();

  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
    if (!setup_s.empty()) {
      workload->teardown(ctx);
    }
    const auto start = Clock::now();
    workload->setup(ctx);
    setup_s.push_back(seconds_since(start));
    setup_total += setup_s.back();
  }

  // Passes until the budget is spent; a pass is not started when the
  // median pass so far would overrun it.
  std::vector<PassTimes> untraced;
  std::vector<PassTimes> traced;
  std::vector<double> pass_wall;
  double rss = 0.0;
  const auto run_start = Clock::now();
  for (std::uint64_t index = 0;; ++index) {
    const std::size_t done = untraced.size() + traced.size();
    if (done >= kMinPasses &&
        seconds_since(run_start) + median(pass_wall) > args.seconds) {
      break;
    }
    // Pass 0, the coldest, is untraced and left out of the overhead.
    const bool trace_pass = args.trace == 1 && index % 2 == 1;
    ctx.trace.set_enabled(trace_pass);
    ctx.trace.set_group(index + 1);
    const auto start = Clock::now();
    PassTimes times;
    {
      const Trace::Scope span(ctx.trace, "bench.pass_s");
      times = workload->pass(ctx, index);
    }
    pass_wall.push_back(seconds_since(start));
    std::fprintf(stderr, "perfbench: pass %llu%s main %.6f s second %.6f s\n",
                 static_cast<unsigned long long>(index),
                 trace_pass ? " (traced)" : "", times.main_s, times.second_s);
    (trace_pass ? traced : untraced).push_back(times);
    if (index == 0) {
      // Peak memory of set-up plus one pass: independent of how many
      // passes fit in the time budget.
      rss = peak_rss_mb();
    }
  }
  ctx.trace.set_enabled(false);
  workload->finish(ctx);

  std::string meta = "\"workload\":\"" + args.workload +
                     "\",\"seed\":" + std::to_string(args.seed) +
                     ",\"nproc\":" + std::to_string(ctx.nproc) +
                     ",\"compiler\":\"" PERFBENCH_COMPILER
                     "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE
                     "\",\"commit\":\"" + args.commit + "\",\"passes\":" +
                     std::to_string(untraced.size() + traced.size()) +
                     ",\"sizing\":[";
  for (std::size_t i = 0; i < ctx.sizing.size(); ++i) {
    meta += (i > 0 ? ",\"" : "\"") + ctx.sizing[i] + "\"";
  }
  meta += "]";
  std::printf("perfbench meta {%s}\n", meta.c_str());

  std::map<std::string, std::pair<double, std::string>> metrics;
  if (args.trace == 0) {
    std::vector<double> main_s, second_s;
    for (const auto& t : untraced) {
      main_s.push_back(t.main_s);
      second_s.push_back(t.second_s);
    }
    for (const auto& figure : workload->figures(untraced)) {
      std::printf("perfbench figure %s %.6g %s\n", figure.name.c_str(),
                  figure.value, figure.unit.c_str());
    }
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["peak_rss_mb"] = {rss, "MB"};
    metrics["main_s"] = {median(main_s), "s"};
    metrics["second_s"] = {median(second_s), "s"};
  } else {
    std::vector<double> traced_main, untraced_main;
    for (const auto& t : traced) {
      traced_main.push_back(t.main_s);
    }
    for (std::size_t i = 1; i < untraced.size(); ++i) {
      untraced_main.push_back(untraced[i].main_s);
    }
    ctx.trace.set_enabled(true);
    ctx.trace.add_value(
        "trace.overhead_pct", 0,
        100.0 * (median(traced_main) / median(untraced_main) - 1.0));
    ctx.trace.set_enabled(false);
    const std::string dump = std::string(kTraceDir) + "/" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    ctx.trace.write_jsonl(dump, meta);
    std::printf("perfbench trace %s\n", dump.c_str());
  }

  const std::uint64_t attempted = ctx.checks.attempted();
  const std::uint64_t failed = ctx.checks.failed();
  std::printf("perfbench figure fail_ratio %.6g ratio\n",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0);
  const bool correct = failed == 0 && attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            json_number(value.first) + ", \"unit\": \"" + value.second +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  ftsp::compile::ArtifactStore::detach_synth_cache();
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
