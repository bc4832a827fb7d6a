// Test oracle for the (u, v) weight sweeps: decides one (u, v) point
// with a fresh encoding and a hard total-weight bound, independent of
// the sweep's warm skeleton and assumption ladder. Header-only; shared
// by the verification and correction tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/correction.hpp"
#include "core/stabilizer_select.hpp"
#include "core/verification.hpp"
#include "f2/bit_matrix.hpp"
#include "f2/bit_vec.hpp"
#include "qec/state_context.hpp"
#include "sat/cnf_builder.hpp"
#include "sat/solver.hpp"

namespace ftsp::core::oracle {

/// At most `u` stabilizers from the span of `generators` (zero rows
/// allowed, so "at most") of total weight <= `v` (nullopt: unbounded)
/// detect every error.
inline bool verification_feasible(const f2::BitMatrix& generators,
                                  const std::vector<f2::BitVec>& errors,
                                  std::size_t u,
                                  std::optional<std::size_t> v) {
  sat::Solver solver;
  sat::CnfBuilder cnf(solver);
  StabilizerSelection selection(cnf, generators, u);
  for (const f2::BitVec& e : errors) {
    std::vector<sat::Lit> detecting;
    for (std::size_t i = 0; i < u; ++i) {
      detecting.push_back(selection.syndrome_bit(i, e));
    }
    cnf.add_at_least_one(detecting);
  }
  if (v.has_value()) {
    selection.bound_total_weight(*v);
  }
  return solver.solve();
}

/// At most `u` measurements from the span of the detector generators of
/// total weight <= `v` (nullopt: unbounded) such that, for every
/// extended-syndrome pattern, one recovery leaves every class error with
/// that pattern at state-reduced weight <= 1. The recovery pool is every
/// Pauli support valid for at least one class error (exhaustive over
/// 2^n, so keep n small).
inline bool correction_feasible(const qec::StateContext& state,
                                qec::PauliType type,
                                const std::vector<f2::BitVec>& errors,
                                std::size_t u,
                                std::optional<std::size_t> v) {
  const std::size_t n = state.num_qubits();
  std::vector<f2::BitVec> pool;
  std::vector<std::vector<bool>> ok;  // ok[c][j]
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    f2::BitVec c(n);
    for (std::size_t q = 0; q < n; ++q) {
      if (((mask >> q) & 1U) != 0) {
        c.set(q);
      }
    }
    std::vector<bool> valid(errors.size());
    bool any = false;
    for (std::size_t j = 0; j < errors.size(); ++j) {
      valid[j] = state.reduced_weight(type, errors[j] ^ c) <= 1;
      any = any || valid[j];
    }
    if (any) {
      pool.push_back(std::move(c));
      ok.push_back(std::move(valid));
    }
  }

  sat::Solver solver;
  sat::CnfBuilder cnf(solver);
  StabilizerSelection selection(cnf, state.detector_generators(type), u);
  std::vector<std::vector<sat::Lit>> sigma(errors.size());
  for (std::size_t j = 0; j < errors.size(); ++j) {
    for (std::size_t i = 0; i < u; ++i) {
      sigma[j].push_back(selection.syndrome_bit(i, errors[j]));
    }
  }
  for (std::size_t pattern = 0; pattern < (std::size_t{1} << u); ++pattern) {
    std::vector<sat::Lit> chosen;
    for (std::size_t c = 0; c < pool.size(); ++c) {
      chosen.push_back(cnf.fresh());
    }
    cnf.add_at_least_one(chosen);
    for (std::size_t j = 0; j < errors.size(); ++j) {
      for (std::size_t c = 0; c < pool.size(); ++c) {
        if (ok[c][j]) {
          continue;
        }
        // Error j shows another pattern, or recovery c is not chosen.
        std::vector<sat::Lit> clause = {~chosen[c]};
        for (std::size_t i = 0; i < u; ++i) {
          const bool bit = ((pattern >> i) & 1U) != 0;
          clause.push_back(bit ? ~sigma[j][i] : sigma[j][i]);
        }
        solver.add_clause(clause);
      }
    }
  }
  if (v.has_value()) {
    selection.bound_total_weight(*v);
  }
  return solver.solve();
}

/// Checks a found optimum (u*, v*) against the oracle `feasible(u, v)`:
/// SAT at (u*, v*), UNSAT at (u*, v* - 1), and UNSAT for u* - 1
/// measurements at any weight when u* > 1.
template <typename Feasible>
void expect_lexicographic_optimum(std::size_t u, std::size_t v,
                                  Feasible&& feasible) {
  ASSERT_GE(u, 1u);
  ASSERT_GE(v, u);  // Every selected measurement is nonzero.
  EXPECT_TRUE(feasible(u, v)) << "u=" << u << " v=" << v;
  EXPECT_FALSE(feasible(u, v - 1)) << "u=" << u << " v-1=" << v - 1;
  if (u > 1) {
    EXPECT_FALSE(feasible(u - 1, std::nullopt)) << "u-1=" << u - 1;
  }
}

inline void expect_verification_optimum(const f2::BitMatrix& generators,
                                        const std::vector<f2::BitVec>& errors,
                                        const VerificationSet& set) {
  expect_lexicographic_optimum(
      set.count(), set.total_weight(),
      [&](std::size_t u, std::optional<std::size_t> v) {
        return verification_feasible(generators, errors, u, v);
      });
}

inline void expect_correction_optimum(const qec::StateContext& state,
                                      qec::PauliType type,
                                      const std::vector<f2::BitVec>& errors,
                                      const CorrectionPlan& plan) {
  expect_lexicographic_optimum(
      plan.measurements.size(), plan.total_weight(),
      [&](std::size_t u, std::optional<std::size_t> v) {
        return correction_feasible(state, type, errors, u, v);
      });
}

}  // namespace ftsp::core::oracle
