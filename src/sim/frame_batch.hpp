#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/faults.hpp"
#include "sim/pauli_frame.hpp"
#include "sim/simd_word.hpp"

namespace ftsp::sim {

/// Bit-packed batch of Pauli frames, Stim-style, templated on the batch
/// word: `kLanesPerWord` shots share one machine word, and each qubit
/// (resp. classical bit) owns a contiguous row of words. Lane `l` of
/// word `w` is shot `w * kLanesPerWord + l`.
///
/// Gate kernels are straight word-wise XOR/swap loops over the affected
/// rows, so one `apply_gate` advances all shots of the batch at once —
/// the same exact frame propagation as the scalar `PauliFrame`, just
/// `kLanesPerWord` frames per instruction. The 256-bit `SimdWord`
/// instantiation moves 4x the shots per op of the u64 one and is
/// bit-identical to it (see `simd_word.hpp` for the lane layout
/// contract). Fault injection is per-lane (faults are sparse) via
/// `apply_fault`; batched samplers draw the lanes to fault from a
/// `BernoulliWordTable` one u64 sub-word at a time.
template <typename Word>
class BasicFrameBatch {
 public:
  static constexpr std::size_t kLanesPerWord = WordOps<Word>::kBits;

  BasicFrameBatch(std::size_t num_qubits, std::size_t num_cbits,
                  std::size_t num_shots);
  explicit BasicFrameBatch(const circuit::Circuit& c, std::size_t num_shots)
      : BasicFrameBatch(c.num_qubits(), c.num_cbits(), num_shots) {}

  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t num_cbits() const { return num_cbits_; }
  std::size_t num_shots() const { return num_shots_; }
  /// Words per row: ceil(num_shots / kLanesPerWord).
  std::size_t num_words() const { return words_; }

  /// Row pointers (one word array per qubit / classical bit).
  Word* x_row(std::size_t q) { return x_.data() + q * words_; }
  Word* z_row(std::size_t q) { return z_.data() + q * words_; }
  Word* outcome_row(std::size_t c) { return outcomes_.data() + c * words_; }
  const Word* x_row(std::size_t q) const { return x_.data() + q * words_; }
  const Word* z_row(std::size_t q) const { return z_.data() + q * words_; }
  const Word* outcome_row(std::size_t c) const {
    return outcomes_.data() + c * words_;
  }

  /// Single-lane accessors (tests, sparse fault handling).
  bool x_bit(std::size_t q, std::size_t shot) const {
    return get_lane(x_row(q), shot);
  }
  bool z_bit(std::size_t q, std::size_t shot) const {
    return get_lane(z_row(q), shot);
  }
  bool outcome_bit(std::size_t c, std::size_t shot) const {
    return get_lane(outcome_row(c), shot);
  }
  void flip_x_bit(std::size_t q, std::size_t shot) {
    flip_lane(x_row(q), shot);
  }
  void flip_z_bit(std::size_t q, std::size_t shot) {
    flip_lane(z_row(q), shot);
  }
  void flip_outcome_bit(std::size_t c, std::size_t shot) {
    flip_lane(outcome_row(c), shot);
  }

  /// Advances every lane across one gate (same semantics as the scalar
  /// `sim::apply_gate`, word-parallel).
  void apply_gate(const circuit::Gate& gate) { apply_gate(gate, 0, words_); }
  /// Restricts the kernel to words [word_begin, word_end) — samplers use
  /// this to run sparse lane groups without touching the whole batch.
  void apply_gate(const circuit::Gate& gate, std::size_t word_begin,
                  std::size_t word_end);
  void apply_circuit(const circuit::Circuit& c);

  /// Injects fault operator `op` into lane `shot` only (mirrors the
  /// scalar `sim::apply_fault`).
  void apply_fault(const FaultOp& op, const circuit::Gate& gate,
                   std::size_t shot);

  /// Pre-grows the row storage so later `reset` calls up to these
  /// dimensions never reallocate — the artifact-driven samplers size one
  /// batch at the protocol's peak segment dimensions up front.
  void reserve(std::size_t num_qubits, std::size_t num_cbits,
               std::size_t num_shots);

  /// Re-dimensions in place (reusing vector capacity) and zeroes the
  /// words [word_begin, word_end) of every row — the allocation-free way
  /// to recycle one batch across many circuit segments. Words outside
  /// the range hold stale bits; callers restricting themselves to a lane
  /// span (see the batched sampler) never read them.
  void reset(std::size_t num_qubits, std::size_t num_cbits,
             std::size_t num_shots, std::size_t word_begin,
             std::size_t word_end);
  void reset(std::size_t num_qubits, std::size_t num_cbits,
             std::size_t num_shots) {
    reset(num_qubits, num_cbits, num_shots, 0,
          (num_shots + kLanesPerWord - 1) / kLanesPerWord);
  }
  void reset(const circuit::Circuit& c, std::size_t num_shots) {
    reset(c.num_qubits(), c.num_cbits(), num_shots);
  }

  /// Copies one lane out as a scalar frame (cross-checking, debugging).
  PauliFrame extract_frame(std::size_t shot) const;
  /// Overwrites one lane with the bits of a scalar frame.
  void deposit_frame(const PauliFrame& frame, std::size_t shot);

  void clear();

 private:
  std::size_t num_qubits_;
  std::size_t num_cbits_;
  std::size_t num_shots_;
  std::size_t words_;
  std::vector<Word> x_;
  std::vector<Word> z_;
  std::vector<Word> outcomes_;
};

extern template class BasicFrameBatch<std::uint64_t>;
extern template class BasicFrameBatch<SimdWord>;

/// The historical u64 batch — the bit-for-bit oracle the wide batch is
/// checked against.
using FrameBatch = BasicFrameBatch<std::uint64_t>;
/// 256-bit batch: 4x the shots per kernel op.
using WideFrameBatch = BasicFrameBatch<SimdWord>;

/// The fault-mask generator of batched sampling: draws the word's
/// popcount from a precomputed inverse-CDF Binomial(64, p) table (one
/// RNG draw, a short scan), then places the set bits uniformly — no transcendentals anywhere in the
/// per-word path. Exactly the 64-fold Bernoulli(p) product distribution.
/// Always draws one 64-lane sub-word; wide batch words consume one draw
/// per u64 sub-word, in ascending sub-word order.
class BernoulliWordTable {
 public:
  static constexpr std::size_t kLanes = 64;

  explicit BernoulliWordTable(double p);

  std::uint64_t draw(std::mt19937_64& rng) const {
    if (always_zero_) {
      return 0;
    }
    // (rng() >> 11) * 2^-53 is uniform on [0, 1) — and, unlike scaling
    // the full 64-bit draw, can never round up to exactly 1.0 (which
    // would fault all 64 lanes at once).
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    std::size_t count = 0;
    while (count < kLanes && u >= cdf_[count]) {
      ++count;
    }
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < count; ++i) {
      for (;;) {
        // Top 6 bits of the draw: uniform lane index.
        const std::uint64_t bit = std::uint64_t{1} << (rng() >> 58);
        if ((mask & bit) == 0) {
          mask |= bit;
          break;
        }
      }
    }
    return mask;
  }

 private:
  // cdf_[k] = P(popcount <= k); the scan returns the smallest k with
  // u < cdf_[k].
  std::array<double, kLanes> cdf_{};
  bool always_zero_ = false;
};

}  // namespace ftsp::sim
