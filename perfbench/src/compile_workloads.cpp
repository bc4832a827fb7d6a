// compile_library and compile_device: cold compiles into a fresh store,
// then the offline audit of that store.
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/artifact.hpp"
#include "compile/store.hpp"
#include "core/ft_check.hpp"
#include "core/synth_cache.hpp"
#include "decoder/lookup_decoder.hpp"
#include "expected.hpp"
#include "obs/registry.hpp"
#include "qec/code_library.hpp"
#include "sat/parallel_solver.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "util/binio.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace ftsp;

/// Cold-cache isolation before every pass and set-up: no SynthCache
/// entries or store backing survive from earlier work.
void reset_synth_state() {
  compile::ArtifactStore::detach_synth_cache();
  core::SynthCache::instance().clear();
  core::SynthCache::instance().reset_stats();
}

/// Stage durations (`compile.stage.duration_us{stage=...}` histograms)
/// and SAT counters published by the library since the last registry
/// reset, recorded as per-pass values.
void record_compile_counters(Context& ctx) {
  const auto snapshot = obs::Registry::instance().snapshot();
  std::map<std::string, double> stage_s = {
      {"prep", 0.0}, {"verif", 0.0}, {"corr", 0.0}, {"decoder_tables", 0.0}};
  for (const auto& row : snapshot.histograms) {
    for (auto& [stage, seconds] : stage_s) {
      const std::string exact = "compile.stage.duration_us{stage=\"" + stage;
      if (row.name.rfind(exact + "\"}", 0) == 0 ||
          row.name.rfind(exact + ".", 0) == 0) {
        seconds += static_cast<double>(row.sum_us) * 1e-6;
      }
    }
  }
  for (const auto& [stage, seconds] : stage_s) {
    ctx.trace.add_value("core.stage_s." + stage, ctx.trace.group(), seconds);
  }
  for (const auto& row : snapshot.counters) {
    if (row.name == "sat.solve.count" || row.name == "sat.conflict.count" ||
        row.name == "sat.propagation.count" ||
        row.name == "core.synthcache.miss.count" ||
        row.name == "sat.proof.bytes") {
      ctx.trace.add_value(row.name, ctx.trace.group(),
                          static_cast<double>(row.value));
    }
  }
}

double artifact_bytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ftsa") {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

/// The checks `ftsp_cli audit` runs on one artifact: decoder tables
/// against a rebuild, the exhaustive single-fault FT check, the coupling
/// audit, and a DRAT re-check of every stored proof.
void audit_artifact(Context& ctx, const compile::ProtocolArtifact& artifact,
                    const std::string& label) {
  const auto& protocol = artifact.protocol;
  std::vector<f2::BitVec> fresh_x;
  std::vector<f2::BitVec> fresh_z;
  {
    const Trace::Scope span(ctx.trace, "decoder.table_build_s");
    fresh_x =
        decoder::LookupDecoder(*protocol.code, qec::PauliType::X).table();
    fresh_z =
        decoder::LookupDecoder(*protocol.code, qec::PauliType::Z).table();
  }
  ctx.checks.expect(artifact.x_decoder_table == fresh_x &&
                        artifact.z_decoder_table == fresh_z,
                    label + ": stored decoder tables differ from rebuild");

  core::FtCheckResult ft;
  {
    const Trace::Scope span(ctx.trace, "core.ft_check_s");
    ft = core::check_fault_tolerance(protocol);
  }
  ctx.checks.expect(ft.ok, label + ": fault tolerance violated");

  if (artifact.coupling != nullptr) {
    std::vector<std::string> violations;
    {
      const Trace::Scope span(ctx.trace, "core.coupling_check_s");
      violations = core::check_protocol_coupling(
          protocol, *artifact.coupling, artifact.gadget_reach);
    }
    ctx.checks.expect(violations.empty(),
                      label + ": coupling map violated");
  }

  for (const auto& proof : artifact.proofs) {
    if (!proof.present) {
      continue;
    }
    const std::string where = label + " proof [" + proof.stage + "]";
    if (!ctx.checks.expect(proof.checked,
                           where + ": compile-time verdict FAIL") ||
        !ctx.checks.expect(
            proof.premise_dimacs.size() == proof.premise_size &&
                util::crc32(proof.premise_dimacs) == proof.premise_crc &&
                proof.drat.size() == proof.drat_size &&
                util::crc32(proof.drat) == proof.drat_crc,
            where + ": proof bytes do not match fingerprints")) {
      continue;
    }
    bool ok = false;
    {
      const Trace::Scope span(ctx.trace, "sat.drat_check_s");
      const sat::CnfFormula premise =
          sat::parse_dimacs_string(proof.premise_dimacs);
      ok = sat::check_drat(premise.clauses, proof.drat).ok;
    }
    ctx.checks.expect(ok, where + ": DRAT re-check failed");
  }
}

/// Audits every artifact in the store at `dir` through a fresh handle,
/// as a separate `ftsp_cli audit` process would.
void audit_store(Context& ctx, const std::string& dir,
                 std::size_t expected_artifacts) {
  const compile::ArtifactStore store(dir);
  const auto keys = store.keys();
  ctx.checks.expect(keys.size() == expected_artifacts,
                    "store holds " + std::to_string(keys.size()) +
                        " artifacts, expected " +
                        std::to_string(expected_artifacts));
  for (const auto& key : keys) {
    std::optional<compile::ProtocolArtifact> artifact;
    {
      const Trace::Scope span(ctx.trace, "compile.store.get_s");
      artifact = store.get(key);
    }
    if (ctx.checks.expect(artifact.has_value(), key + ": vanished")) {
      audit_artifact(ctx, *artifact, artifact->protocol.code->name());
    }
  }
}

void check_counts(Context& ctx, const compile::ProtocolArtifact& artifact,
                  const ExpectedProtocol& expected) {
  const auto& p = artifact.provenance;
  ctx.checks.expect(
      p.prep_cnots == expected.prep_cnots &&
          p.verification_measurements ==
              expected.verification_measurements &&
          p.branch_count == expected.branches,
      std::string(expected.name) + ": got " + std::to_string(p.prep_cnots) +
          " prep CNOTs, " + std::to_string(p.verification_measurements) +
          " verification measurements, " + std::to_string(p.branch_count) +
          " branches");
}

/// One compile target: a code under fixed options, with its expected
/// protocol numbers and the per-layer row its compile time feeds.
struct Target {
  qec::CssCode code;
  core::SynthesisOptions options;
  ExpectedProtocol expected;
  std::string row;
};

/// Shared pass shape of both compile workloads: cold compiles of every
/// target into a fresh store (main), then the store's audit (second).
class CompileWorkload : public Workload {
 public:
  PassTimes pass(Context& ctx, std::uint64_t index) override {
    reset_synth_state();
    const TempDir dir(ctx.scratch + "/pass" + std::to_string(index));
    obs::Registry::instance().reset_for_tests();
    PassTimes times;
    const auto start = Clock::now();
    {
      compile::ArtifactStore store(dir.path());
      store.attach_synth_cache();
      for (const auto& target : targets_) {
        compile::ProtocolArtifact artifact;
        {
          const Trace::Scope span(ctx.trace, target.row);
          artifact = compile::ProtocolCompiler(target.options)
                         .compile(target.code);
        }
        {
          const Trace::Scope span(ctx.trace, "compile.store.put_s");
          store.put(artifact);
        }
        check_counts(ctx, artifact, target.expected);
        ctx.checks.expect(!artifact.provenance.prep_fallback,
                          target.row + ": heuristic prep fallback");
      }
      compile::ArtifactStore::detach_synth_cache();
    }
    times.main_s = seconds_since(start);
    record_compile_counters(ctx);
    ctx.trace.add_value("compile.artifact.bytes", ctx.trace.group(),
                        artifact_bytes(dir.path()));

    obs::Registry::instance().reset_for_tests();
    const auto audit_start = Clock::now();
    audit_store(ctx, dir.path(), distinct_keys_);
    times.second_s = seconds_since(audit_start);
    return times;
  }

 protected:
  /// Builds the targets and warms up with one compile of the first target
  /// (part of set-up), so the first pass pays no first-use costs. The
  /// warm-up stores nothing: a store write waits on fsync, which took
  /// 1.2-9 ms on a shared VM's disk, next to a 7 ms warm-up compile.
  void build(std::vector<Target> targets) {
    reset_synth_state();
    targets_ = std::move(targets);
    std::vector<std::string> keys;
    for (const auto& target : targets_) {
      keys.push_back(compile::artifact_key(target.code,
                                           qec::LogicalBasis::Zero,
                                           target.options));
    }
    std::sort(keys.begin(), keys.end());
    distinct_keys_ = static_cast<std::size_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
    compile::ProtocolCompiler(targets_.front().options)
        .compile(targets_.front().code);
    reset_synth_state();
  }

  std::vector<Target> targets_;
  std::size_t distinct_keys_ = 0;
};

/// `ftsp_cli compile --all` defaults (proofs on, 4-config portfolio,
/// store attached as SAT-cache backing), except that the portfolio races
/// on one thread instead of min(nproc, 8). Results do not depend on the
/// thread count, and on a 4-vCPU VM one thread compiles as fast as four,
/// but the wall time of the 4-thread race follows how many vCPUs the host
/// grants: it rose 65% for minutes while one-thread workloads moved 7%.
class CompileLibrary : public CompileWorkload {
 public:
  void setup(Context& ctx) override {
    core::SynthesisOptions options;
    options.capture_proofs = true;
    sat::EngineOptions portfolio;
    portfolio.num_configs = 4;
    portfolio.num_threads = 1;
    options.verification.engine = portfolio;
    options.correction.engine = portfolio;
    options.prep.engine.num_configs = portfolio.num_configs;
    options.prep.engine.num_threads = portfolio.num_threads;
    ctx.sizing = {"sat.portfolio.threads=" +
                  std::to_string(portfolio.num_threads)};

    std::vector<Target> targets;
    for (auto& code : qec::all_library_codes()) {
      const auto* expected = find_expected(code.name(), "all");
      if (expected == nullptr) {
        throw std::runtime_error("no expected protocol for " + code.name());
      }
      std::string row = "compile.code_s." + metric_token(code.name());
      targets.push_back({std::move(code), options, *expected, row});
    }
    build(std::move(targets));
  }

  std::vector<Figure> figures(
      const std::vector<PassTimes>& untraced) const override {
    return median_figures(untraced, "compile_s", "audit_s");
  }
};

/// `ftsp_cli compile <code> --coupling <map>` defaults: SAT-optimal
/// prep, sequential engine, proofs on.
class CompileDevice : public CompileWorkload {
 public:
  void setup(Context& ctx) override {
    std::vector<Target> targets;
    for (const std::string map : {"linear", "grid"}) {
      core::SynthesisOptions options;
      options.capture_proofs = true;
      options.coupling.name = map;
      options.prep.method = core::PrepSynthOptions::Method::Optimal;
      for (auto code : {qec::steane(), qec::shor(), qec::surface3()}) {
        const auto* expected = find_expected(code.name(), map);
        if (expected == nullptr) {
          throw std::runtime_error("no expected protocol for " +
                                   code.name() + "@" + map);
        }
        std::string row = "compile.device_s." + metric_token(code.name()) +
                          "_" + map;
        targets.push_back({std::move(code), options, *expected, row});
      }
    }
    ctx.sizing = {"sat.engine.threads=1"};
    build(std::move(targets));
  }

  std::vector<Figure> figures(
      const std::vector<PassTimes>& untraced) const override {
    return median_figures(untraced, "device_compile_s", "device_audit_s");
  }
};

}  // namespace

std::unique_ptr<Workload> make_compile_library() {
  return std::make_unique<CompileLibrary>();
}

std::unique_ptr<Workload> make_compile_device() {
  return std::make_unique<CompileDevice>();
}

}  // namespace perfbench
