// simulate: Monte-Carlo sampling and stratified rate sweeps over
// artifacts compiled and loaded back from a store during set-up.
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/artifact.hpp"
#include "compile/store.hpp"
#include "core/executor.hpp"
#include "core/rate_estimator.hpp"
#include "core/samplers.hpp"
#include "core/synth_cache.hpp"
#include "expected.hpp"
#include "obs/registry.hpp"
#include "qec/code_library.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace ftsp;

/// Shots per sampler call. Keeps the trajectory buffer near 1 MB, so
/// where the allocator places it barely moves peak memory.
constexpr std::size_t kChunkShots = std::size_t{1} << 15;

/// What a serving process holds per artifact: the artifact, its
/// rehydrated decoder and an executor.
struct Loaded {
  std::unique_ptr<compile::ProtocolArtifact> artifact;
  std::unique_ptr<decoder::PerfectDecoder> decoder;
  std::unique_ptr<core::Executor> executor;
  const ExpectedSim* expected = nullptr;
  std::string token;
  std::size_t shots_per_pass = 0;
};

std::uint64_t count_x_fails(const core::TrajectoryBatch& batch) {
  std::uint64_t fails = 0;
  for (const auto& t : batch.trajectories) {
    fails += t.x_fail ? 1 : 0;
  }
  return fails;
}

bool same_trajectories(const core::TrajectoryBatch& a,
                       const core::TrajectoryBatch& b) {
  if (a.trajectories.size() != b.trajectories.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
    const auto& x = a.trajectories[i];
    const auto& y = b.trajectories[i];
    if (x.sites != y.sites || x.faults != y.faults || x.x_fail != y.x_fail ||
        x.z_fail != y.z_fail || x.hook_terminated != y.hook_terminated) {
      return false;
    }
  }
  return true;
}

bool close(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::fabs(want);
}

class Simulate : public Workload {
 public:
  void setup(Context& ctx) override {
    compile::ArtifactStore::detach_synth_cache();
    core::SynthCache::instance().clear();
    loaded_.clear();
    const TempDir dir(ctx.scratch + "/store");
    core::SynthesisOptions options;
    options.capture_proofs = true;  // Single-code CLI compile defaults.
    const compile::ProtocolCompiler compiler(options);
    std::vector<std::string> keys;
    {
      compile::ArtifactStore store(dir.path());
      for (const auto& code : {qec::steane(), qec::surface3(),
                               qec::sixteen_2_4(), qec::tesseract()}) {
        const auto artifact = compiler.compile(code);
        store.put(artifact);
        keys.push_back(artifact.key);
      }
    }
    const compile::ArtifactStore store(dir.path());
    for (const auto& key : keys) {
      Loaded entry;
      auto artifact = store.get(key);
      if (!artifact.has_value()) {
        throw std::runtime_error("simulate: artifact vanished from store");
      }
      entry.artifact =
          std::make_unique<compile::ProtocolArtifact>(std::move(*artifact));
      entry.decoder = std::make_unique<decoder::PerfectDecoder>(
          compile::make_artifact_decoder(*entry.artifact));
      entry.executor =
          std::make_unique<core::Executor>(entry.artifact->protocol);
      const std::string& name = entry.artifact->protocol.code->name();
      for (const auto& row : kExpectedSims) {
        if (name == row.name) {
          entry.expected = &row;
        }
      }
      if (entry.expected == nullptr) {
        throw std::runtime_error("simulate: no pinned values for " + name);
      }
      entry.token = metric_token(name);
      // About 0.1-0.2 s of sampling per code and pass.
      entry.shots_per_pass = entry.artifact->protocol.num_data_qubits() <= 9
                                 ? std::size_t{1} << 21
                                 : std::size_t{1} << 19;
      loaded_.push_back(std::move(entry));
    }
    ctx.sizing = {"sim.sampler.threads=1", "rate.threads=1"};
  }

  PassTimes pass(Context& ctx, std::uint64_t index) override {
    PassTimes times;
    core::SamplerOptions sampler;
    sampler.num_threads = 1;
    for (std::size_t c = 0; c < loaded_.size(); ++c) {
      const auto& entry = loaded_[c];
      sampler.layout = &entry.artifact->layout;
      const std::uint64_t seed = mix_seed(ctx.seed, index * 64 + c);
      std::uint64_t fails = 0;
      const auto start = Clock::now();
      {
        const Trace::Scope span(ctx.trace, "sim.sample_s." + entry.token);
        for (std::size_t done = 0; done < entry.shots_per_pass;
             done += kChunkShots) {
          const auto batch = core::sample_protocol_batch(
              *entry.executor, *entry.decoder, kSampleP, kChunkShots,
              mix_seed(seed, done), sampler);
          fails += count_x_fails(batch);
        }
      }
      const double elapsed = seconds_since(start);
      times.main_s += elapsed;
      ctx.trace.add_value("sim.shots_per_s." + entry.token,
                          ctx.trace.group(),
                          static_cast<double>(entry.shots_per_pass) / elapsed);
      // Seed-dependent counts: check against the pinned fixed-seed rate
      // within 6 standard errors.
      const double shots = static_cast<double>(entry.shots_per_pass);
      const double ref = static_cast<double>(entry.expected->pinned_fails) /
                         static_cast<double>(kPinShots);
      const double sigma = std::sqrt(ref * (1 - ref) / shots +
                                     ref * (1 - ref) /
                                         static_cast<double>(kPinShots));
      ctx.checks.expect(
          std::fabs(static_cast<double>(fails) / shots - ref) <=
              6 * sigma + 1e-12,
          entry.token + ": sampled fail rate " +
              std::to_string(static_cast<double>(fails) / shots) +
              " far from pinned " + std::to_string(ref));
    }

    obs::Registry::instance().reset_for_tests();
    const auto grid = core::log_spaced_grid(1e-4, 1e-2, 7);
    const auto sweep_start = Clock::now();
    for (const auto& entry : loaded_) {
      core::RateOptions rate;
      rate.rel_err = 0.005;
      rate.seed = kSweepSeed;
      rate.num_threads = 1;
      rate.layout = &entry.artifact->layout;
      std::vector<core::RateEstimate> estimates;
      {
        const Trace::Scope span(ctx.trace, "core.rate_sweep_s." + entry.token);
        estimates = core::estimate_logical_error_rate_sweep(
            *entry.executor, *entry.decoder, grid, rate);
      }
      ctx.checks.expect(
          estimates.size() == grid.size() &&
              close(estimates[3].p_logical, entry.expected->p_logical_1e3) &&
              close(estimates[6].p_logical, entry.expected->p_logical_1e2),
          entry.token + ": sweep p_L " +
              (estimates.size() == grid.size()
                   ? describe(estimates[3].p_logical) + " / " +
                         describe(estimates[6].p_logical)
                   : std::string("missing")) +
              " differs from pinned");
    }
    times.second_s = seconds_since(sweep_start);
    const auto snapshot = obs::Registry::instance().snapshot();
    for (const auto& row : snapshot.counters) {
      if (row.name == "rate.shot.count" || row.name == "rate.sector.count") {
        ctx.trace.add_value(row.name, ctx.trace.group(),
                            static_cast<double>(row.value));
      }
    }
    return times;
  }

  void finish(Context& ctx) override {
    for (const auto& entry : loaded_) {
      core::SamplerOptions narrow;
      narrow.num_threads = 1;
      narrow.width = core::WordWidth::W64;
      core::SamplerOptions wide = narrow;
      wide.width = core::WordWidth::W256;
      const auto a = core::sample_protocol_batch(
          *entry.executor, *entry.decoder, kSampleP, kPinShots, kPinSeed,
          narrow);
      const auto b = core::sample_protocol_batch(
          *entry.executor, *entry.decoder, kSampleP, kPinShots, kPinSeed, wide);
      ctx.checks.expect(same_trajectories(a, b),
                        entry.token + ": u64 and 256-bit batches differ");
      const std::uint64_t fails = count_x_fails(a);
      ctx.checks.expect(fails == entry.expected->pinned_fails,
                        entry.token + ": pinned fail count " +
                            std::to_string(fails) + " != " +
                            std::to_string(entry.expected->pinned_fails));
      // The scalar executor draws from other RNG streams, so it is an
      // oracle for the distribution, not for individual shots: compare
      // fail rates at an elevated p within 5 standard errors.
      constexpr double kOracleP = 0.05;
      constexpr std::size_t kOracleShots = 4000;
      const auto scalar = core::sample_protocol_batch_scalar(
          *entry.executor, *entry.decoder, kOracleP, kOracleShots, kPinSeed);
      const auto batched = core::sample_protocol_batch(
          *entry.executor, *entry.decoder, kOracleP, kOracleShots * 4,
          kPinSeed, narrow);
      const double rs = static_cast<double>(count_x_fails(scalar)) /
                        static_cast<double>(kOracleShots);
      const double rb = static_cast<double>(count_x_fails(batched)) /
                        static_cast<double>(kOracleShots * 4);
      const double sigma = std::sqrt(
          rs * (1 - rs) / kOracleShots + rb * (1 - rb) / (kOracleShots * 4));
      ctx.checks.expect(std::fabs(rs - rb) <= 5 * sigma + 1e-3,
                        entry.token + ": scalar oracle rate " +
                            std::to_string(rs) + " vs batched " +
                            std::to_string(rb));
    }
  }

  std::vector<Figure> figures(
      const std::vector<PassTimes>& untraced) const override {
    auto figures = median_figures(untraced, "sample_s", "rate_sweep_s");
    double shots = 0.0;
    for (const auto& entry : loaded_) {
      shots += static_cast<double>(entry.shots_per_pass);
    }
    figures.push_back(
        {"sample_shots_per_s", shots / figures.front().value, "1/s"});
    return figures;
  }

 private:
  static std::string describe(double value) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
  }

  std::vector<Loaded> loaded_;
};

}  // namespace

std::unique_ptr<Workload> make_simulate() {
  return std::make_unique<Simulate>();
}

}  // namespace perfbench
