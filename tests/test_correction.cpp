#include "core/correction.hpp"

#include <gtest/gtest.h>

#include "f2/gauss.hpp"
#include "qec/code_library.hpp"
#include "qec/state_context.hpp"
#include "sweep_oracle.hpp"

namespace ftsp::core {
namespace {

using f2::BitVec;
using qec::LogicalBasis;
using qec::PauliType;

/// Validates the defining property of CORRECTION CIRCUIT SYNTHESIS: every
/// class error, after the recovery of its extended-syndrome pattern, has
/// state-reduced weight <= 1.
void expect_plan_valid(const qec::StateContext& state, PauliType type,
                       const std::vector<BitVec>& errors,
                       const CorrectionPlan& plan) {
  for (const BitVec& e : errors) {
    BitVec pattern(plan.measurements.size());
    for (std::size_t i = 0; i < plan.measurements.size(); ++i) {
      if (plan.measurements[i].dot(e)) {
        pattern.set(i);
      }
    }
    const auto it = plan.recoveries.find(pattern);
    ASSERT_NE(it, plan.recoveries.end())
        << "no recovery for pattern of " << e.to_string();
    EXPECT_LE(state.reduced_weight(type, e ^ it->second), 1u)
        << "error " << e.to_string() << " recovery "
        << it->second.to_string();
  }
}

TEST(Correction, SingleDangerousErrorNeedsNoMeasurement) {
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const std::vector<BitVec> errors = {BitVec::from_string("1100000")};
  const auto plan = synthesize_correction(state, PauliType::X, errors);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->measurements.empty());
  expect_plan_valid(state, PauliType::X, errors, *plan);
}

TEST(Correction, EquivalentErrorsShareRecovery) {
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const BitVec e = BitVec::from_string("1100000");
  const std::vector<BitVec> errors = {e, e ^ code.hx().row(0)};
  const auto plan = synthesize_correction(state, PauliType::X, errors);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->measurements.empty());
  expect_plan_valid(state, PauliType::X, errors, *plan);
}

/// Independent oracle: exhaustive scan over all 2^n Pauli supports for a
/// recovery valid for every error (the u = 0 feasibility question).
bool common_recovery_exists(const qec::StateContext& state, PauliType type,
                            const std::vector<BitVec>& errors) {
  const std::size_t n = state.num_qubits();
  bool found = false;
  for (std::size_t w = 0; w <= n && !found; ++w) {
    qec::for_each_weight(n, w, [&](const BitVec& c) {
      for (const BitVec& e : errors) {
        if (state.reduced_weight(type, e ^ c) > 1) {
          return true;  // Keep scanning.
        }
      }
      found = true;
      return false;
    });
  }
  return found;
}

TEST(Correction, BenignErrorInClassConstrainsRecovery) {
  // A measurement flip produces the same syndrome with no data error; the
  // recovery applied for the shared pattern must keep both members below
  // weight 2. Whether a single unconditional recovery suffices is decided
  // by the exhaustive oracle; the SAT plan must match it.
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const std::vector<BitVec> errors = {BitVec::from_string("1100000"),
                                      BitVec(7)};
  const auto plan = synthesize_correction(state, PauliType::X, errors);
  ASSERT_TRUE(plan.has_value());
  expect_plan_valid(state, PauliType::X, errors, *plan);
  EXPECT_EQ(plan->measurements.empty(),
            common_recovery_exists(state, PauliType::X, errors));
}

TEST(Correction, MeasurementCountAgreesWithOracleOnHardClasses) {
  // Several weight-2 error classes plus the identity; whether one
  // unconditional recovery suffices is decided by the exhaustive oracle
  // and the SAT plan must agree with it (and stay valid either way).
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const std::vector<BitVec> errors = {
      BitVec::from_string("1100000"), BitVec::from_string("0011000"),
      BitVec::from_string("1000100"), BitVec(7)};
  const bool u0_feasible =
      common_recovery_exists(state, PauliType::X, errors);
  const auto plan = synthesize_correction(state, PauliType::X, errors);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->measurements.empty(), u0_feasible);
  expect_plan_valid(state, PauliType::X, errors, *plan);
}

TEST(Correction, MeasurementsComeFromDetectorSpan) {
  const auto code = qec::surface3();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const std::vector<BitVec> errors = {BitVec::from_string("110000000"),
                                      BitVec(9),
                                      BitVec::from_string("000000011")};
  const auto plan = synthesize_correction(state, PauliType::X, errors);
  ASSERT_TRUE(plan.has_value());
  const auto& candidates = state.detector_generators(PauliType::X);
  for (const auto& m : plan->measurements) {
    EXPECT_TRUE(f2::in_row_span(candidates, m));
    EXPECT_TRUE(m.any());
  }
  expect_plan_valid(state, PauliType::X, errors, *plan);
}

TEST(Correction, ZErrorsUseXDetectors) {
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const std::vector<BitVec> errors = {BitVec::from_string("0110000"),
                                      BitVec::from_string("1010000"),
                                      BitVec(7)};
  const auto plan = synthesize_correction(state, PauliType::Z, errors);
  ASSERT_TRUE(plan.has_value());
  expect_plan_valid(state, PauliType::Z, errors, *plan);
  for (const auto& m : plan->measurements) {
    EXPECT_TRUE(f2::in_row_span(code.hx(), m));
  }
}

TEST(Correction, RecoveryWeightsAreSmall) {
  // Recoveries are chosen lightest-first from the candidate pool.
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const std::vector<BitVec> errors = {BitVec::from_string("1100000"),
                                      BitVec(7)};
  const auto plan = synthesize_correction(state, PauliType::X, errors);
  ASSERT_TRUE(plan.has_value());
  for (const auto& [pattern, recovery] : plan->recoveries) {
    (void)pattern;
    EXPECT_LE(recovery.popcount(), 3u);
  }
}

TEST(Correction, LexicographicOptimality) {
  // The returned plan must not be improvable in measurement count: the
  // u = 0 feasibility reported by the exhaustive oracle must match, and
  // when a measurement is needed exactly one suffices for a two-coset
  // class (one bit separates two classes).
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const std::vector<BitVec> errors = {BitVec::from_string("1100000"),
                                      BitVec(7)};
  const auto plan = synthesize_correction(state, PauliType::X, errors);
  ASSERT_TRUE(plan.has_value());
  if (common_recovery_exists(state, PauliType::X, errors)) {
    EXPECT_TRUE(plan->measurements.empty());
  } else {
    EXPECT_EQ(plan->measurements.size(), 1u);
  }
}

/// The sweep's (u*, v*) for one class per code must match a from-scratch
/// hard-bound encoding with an exhaustive recovery pool: SAT at v*,
/// UNSAT at v* - 1, UNSAT for u* - 1 measurements (for u* = 1, the
/// exhaustive common-recovery scan rules out u = 0).
TEST(Correction, SweepOptimumMatchesFromScratchOracle) {
  const auto steane = qec::steane();
  const auto surface = qec::surface3();
  const qec::StateContext steane_state(steane, LogicalBasis::Zero);
  const qec::StateContext surface_state(surface, LogicalBasis::Zero);
  const std::pair<const qec::StateContext*, std::vector<BitVec>> classes[] = {
      {&steane_state,
       {BitVec(7), BitVec::from_string("1100000"),
        BitVec::from_string("1110000")}},
      {&surface_state,
       {BitVec(9), BitVec::from_string("110000000"),
        BitVec::from_string("100100000"), BitVec::from_string("001000100")}},
  };
  for (const auto& [state, errors] : classes) {
    SCOPED_TRACE(state->code().name());
    CorrectionSynthOptions options;
    options.engine.use_cache = false;
    const auto plan =
        synthesize_correction(*state, PauliType::X, errors, options);
    ASSERT_TRUE(plan.has_value());
    expect_plan_valid(*state, PauliType::X, errors, *plan);
    ASSERT_FALSE(plan->measurements.empty());
    EXPECT_FALSE(common_recovery_exists(*state, PauliType::X, errors));
    oracle::expect_correction_optimum(*state, PauliType::X, errors, *plan);
  }
}

TEST(Correction, TotalWeightAccountsAllMeasurements) {
  CorrectionPlan plan;
  plan.measurements = {BitVec::from_string("1100"),
                       BitVec::from_string("0111")};
  EXPECT_EQ(plan.total_weight(), 5u);
}

TEST(Correction, ManyErrorsOnLargerCode) {
  const auto code = qec::tetrahedral();
  const qec::StateContext state(code, LogicalBasis::Zero);
  std::vector<BitVec> errors;
  errors.emplace_back(BitVec(15));
  errors.push_back(BitVec(15, {0, 1}));
  errors.push_back(BitVec(15, {2, 3}));
  errors.push_back(BitVec(15, {0, 1, 2}));
  const auto plan = synthesize_correction(state, PauliType::X, errors);
  ASSERT_TRUE(plan.has_value());
  expect_plan_valid(state, PauliType::X, errors, *plan);
}

TEST(Correction, DeterministicAcrossCalls) {
  const auto code = qec::shor();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const std::vector<BitVec> errors = {BitVec::from_string("110000000"),
                                      BitVec(9)};
  const auto a = synthesize_correction(state, PauliType::X, errors);
  const auto b = synthesize_correction(state, PauliType::X, errors);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->measurements.size(), b->measurements.size());
  EXPECT_EQ(a->total_weight(), b->total_weight());
}

}  // namespace
}  // namespace ftsp::core
