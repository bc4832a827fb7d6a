// Hand-written reference values the workloads check their outputs
// against. They are constants, never produced by the code under test
// in the same run.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Protocol numbers of one compiled |0>_L preparation: CNOTs of the
/// preparation circuit, verification measurements over all layers, and
/// correction branches (as `SynthProvenance` reports them).
struct ExpectedProtocol {
  const char* name;
  const char* coupling;  ///< "all" or a builtin device map.
  std::uint32_t prep_cnots;
  std::uint32_t verification_measurements;
  std::uint32_t branches;
};

// Library codes under the `ftsp_cli compile --all` defaults (heuristic
// prep, optimal verification and correction) and the device targets
// under SAT-optimal prep.
//
// The paper's Table I is not part of this source tree, so these rows
// are not compared against it here. Known differences to keep in mind
// when doing so: `optimize_measurement_order` is on by default, which
// can remove flag qubits the paper's plain ascending order needs, and
// the library codes use heuristic (not SAT-optimal) preparation.
inline constexpr ExpectedProtocol kExpectedProtocols[] = {
    {"Steane", "all", 8, 1, 1},
    {"Shor", "all", 8, 1, 1},
    {"Surface_3", "all", 8, 1, 1},
    {"[[11,1,3]]", "all", 14, 2, 6},
    {"Tetrahedral", "all", 22, 2, 3},
    {"Hamming", "all", 22, 2, 3},
    {"Carbon", "all", 16, 3, 12},
    {"[[16,2,4]]", "all", 21, 2, 6},
    {"Tesseract", "all", 25, 3, 10},
    {"Steane", "linear", 12, 2, 3},
    {"Shor", "linear", 12, 1, 1},
    {"Surface_3", "linear", 10, 1, 1},
    {"Steane", "grid", 12, 2, 3},
    {"Shor", "grid", 8, 1, 1},
    {"Surface_3", "grid", 8, 1, 1},
};

inline const ExpectedProtocol* find_expected(const std::string& name,
                                             const std::string& coupling) {
  for (const auto& row : kExpectedProtocols) {
    if (name == row.name && coupling == row.coupling) {
      return &row;
    }
  }
  return nullptr;
}

/// Pinned outputs of the `simulate` workload's artifacts (compiled with
/// the single-code CLI defaults: sequential engine, heuristic prep).
struct ExpectedSim {
  const char* name;
  /// x_fail count of `sample_protocol_batch` over kPinShots shots at
  /// p = kSampleP with seed kPinSeed.
  std::uint64_t pinned_fails;
  /// p_L of the fixed-seed sweep at p = 1e-3 and p = 1e-2 (grid points 3
  /// and 6 of the 7-point log grid over [1e-4, 1e-2]).
  double p_logical_1e3;
  double p_logical_1e2;
};

inline constexpr std::uint64_t kPinSeed = 20250101;
inline constexpr std::size_t kPinShots = 65536;
inline constexpr double kSampleP = 0.01;
inline constexpr std::uint64_t kSweepSeed = 7;

inline constexpr ExpectedSim kExpectedSims[] = {
    {"Steane", 378, 6.0447857866114875e-05, 0.0055056445558795833},
    {"Surface_3", 297, 5.2493498259792102e-05, 0.0047823025085662564},
    {"[[16,2,4]]", 2547, 0.00048325350277842323, 0.038413771721331105},
    {"Tesseract", 5990, 0.0012746879547982707, 0.092619679135632252},
};

}  // namespace perfbench
