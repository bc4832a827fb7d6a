#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "circuit/gadgets.hpp"
#include "decoder/lookup_decoder.hpp"
#include "f2/bit_matrix.hpp"
#include "qec/state_context.hpp"

namespace ftsp::core {

/// The textbook measurement-based preparation the paper contrasts with
/// (Section I: "a way of preparing an encoded state is to conduct
/// specific measurements ... however, this method can be costly"):
/// initialize the product state, measure every opposite-basis stabilizer
/// generator with an ancilla gadget, and apply a frame fix turning the
/// random measurement outcomes into the +1 eigenspace.
///
/// One round is *not* fault-tolerant (hook errors propagate unchecked and
/// measurement errors mis-project), which is exactly why the paper's
/// verification-based schemes exist; `sample_measure_prep` demonstrates
/// the resulting O(p) logical error floor numerically.
struct MeasurementBasedPrep {
  circuit::Circuit circuit{0};  ///< Resets + one gadget per generator.
  std::vector<circuit::GadgetLayout> gadgets;
  /// Row i: the Pauli fix applied when measurement i reads -1; of the
  /// opposite type to the prepared basis (Z fixes for |0>_L).
  f2::BitMatrix outcome_fixes;
};

/// Builds the one-round measurement-based preparation for the state.
MeasurementBasedPrep synthesize_measure_prep(
    const qec::StateContext& state);

struct MeasurePrepStats {
  /// Failure rate under the state's basis (`qec::flips_prepared_state`).
  double logical_error_rate = 0.0;
  std::size_t shots = 0;
  std::size_t ancillas = 0;
  std::size_t cnots = 0;
};

/// Monte-Carlo logical error rate of the one-round scheme under E1_1
/// noise of strength p (perfect final EC round, then a destructive
/// readout in the prepared basis).
MeasurePrepStats sample_measure_prep(const MeasurementBasedPrep& prep,
                                     const qec::StateContext& state,
                                     const decoder::PerfectDecoder& decoder,
                                     double p, std::size_t shots,
                                     std::uint64_t seed);

}  // namespace ftsp::core
