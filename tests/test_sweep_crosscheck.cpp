// Stress tier: cross-checks the sweep's verification optima against
// from-scratch hard-bound encodes over the full code library, checks the
// SAT prep path against the tableau simulator, and protocol-level
// determinism at 1/2/8 threads.
#include <gtest/gtest.h>

#include "core/ft_check.hpp"
#include "core/metrics.hpp"
#include "core/prep_synth.hpp"
#include "core/protocol.hpp"
#include "core/synth_cache.hpp"
#include "core/verification.hpp"
#include "qec/code_library.hpp"
#include "qec/state_context.hpp"
#include "sim/tableau.hpp"
#include "sweep_oracle.hpp"

#include <random>

namespace ftsp::core {
namespace {

using f2::BitVec;
using qec::LogicalBasis;
using qec::PauliType;

class SweepCrosscheckAllCodes : public ::testing::TestWithParam<const char*> {
};

/// The sweep's (u, v) optimum must match a from-scratch hard-bound
/// encoding for every library code (SAT at v*, UNSAT at v* - 1, UNSAT
/// for u* - 1 measurements), and the set must detect every dangerous
/// error.
TEST_P(SweepCrosscheckAllCodes, VerificationOptimaMatch) {
  const auto code = qec::library_code_by_name(GetParam());
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_prep(state);
  const auto events =
      enumerate_single_fault_events(code.num_qubits(), {&prep});
  const auto dangerous = dangerous_errors(state, PauliType::X, events);
  if (dangerous.empty()) {
    GTEST_SKIP() << "no dangerous errors for " << GetParam();
  }
  const auto& generators = state.detector_generators(PauliType::X);

  VerificationSynthOptions options;
  options.engine.use_cache = false;
  const auto set = synthesize_verification(generators, dangerous, options);
  ASSERT_TRUE(set.has_value());
  for (const BitVec& e : dangerous) {
    bool detected = false;
    for (const BitVec& s : set->stabilizers) {
      detected = detected || s.dot(e);
    }
    EXPECT_TRUE(detected) << "undetected " << e.to_string();
  }
  oracle::expect_verification_optimum(generators, dangerous, *set);
}

INSTANTIATE_TEST_SUITE_P(
    AllNine, SweepCrosscheckAllCodes,
    ::testing::Values("Steane", "Shor", "Surface_3", "[[11,1,3]]",
                      "Tetrahedral", "Hamming", "Carbon", "[[16,2,4]]",
                      "Tesseract"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

/// The SAT prep path (BFS shortcut disabled) finds the minimal CNOT
/// count and a correct circuit, on a code small enough for the gate-slot
/// search.
TEST(SweepCrosscheck, SatPrepPathEnginesAgree) {
  const auto code = qec::CssCode(
      "[[4,2,2]]", f2::BitMatrix::from_strings({"1111"}),
      f2::BitMatrix::from_strings({"1111"}));
  const qec::StateContext state(code, LogicalBasis::Zero);
  PrepSynthOptions options;
  options.method = PrepSynthOptions::Method::Optimal;
  options.allow_bfs = false;
  options.engine.use_cache = false;
  const auto prep = synthesize_prep_optimal(state, options);
  ASSERT_TRUE(prep.has_value());
  // Ground truth: the circuit prepares the target state.
  sim::Tableau tableau(prep->num_qubits());
  std::mt19937_64 rng(7);
  tableau.run(*prep, rng);
  const auto& xgens = state.stabilizer_generators(PauliType::X);
  for (std::size_t i = 0; i < xgens.rows(); ++i) {
    qec::Pauli p(state.num_qubits());
    p.x = xgens.row(i);
    EXPECT_TRUE(tableau.stabilizes(p));
  }
  EXPECT_EQ(prep->cnot_count(), 3u);  // |+> fan-out over the weight-4 row.
}

/// End-to-end determinism: the full protocol synthesized through the
/// portfolio engine is bit-identical at 1, 2 and 8 threads.
TEST(SweepCrosscheck, ProtocolIsThreadCountInvariant) {
  std::vector<std::string> rendered;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SynthCache::instance().clear();  // No cross-pollination between runs.
    SynthesisOptions options;
    for (auto* engine : {&options.verification.engine,
                         &options.correction.engine}) {
      engine->use_cache = false;
      engine->num_configs = 4;
      engine->num_threads = threads;
      engine->seed = 99;
    }
    const auto protocol = synthesize_protocol(
        qec::library_code_by_name("Surface_3"), LogicalBasis::Zero,
        options);
    std::string text = protocol.prep.to_text();
    for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
      if (layer->has_value()) {
        text += "---\n" + (*layer)->verif.to_text();
        for (const auto& [key, branch] : (*layer)->branches) {
          text += "+" + key.to_string() + "\n" + branch.circ.to_text();
        }
      }
    }
    rendered.push_back(std::move(text));
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(rendered[0], rendered[2]);
}

}  // namespace
}  // namespace ftsp::core
