// Pins the persisted engine-key bytes: the engine fingerprint, the
// canonical store key's `eng=` field and the three synthesis-cache key
// prefixes. Store keys, `.ftsa` provenance and satcache `.kv` files are
// golden, so these literals must never change, whatever the engine code
// looks like.
#include <gtest/gtest.h>

#include "compile/artifact.hpp"
#include "core/correction.hpp"
#include "core/prep_synth.hpp"
#include "core/protocol.hpp"
#include "core/synth_cache.hpp"
#include "core/verification.hpp"
#include "qec/code_library.hpp"
#include "qec/state_context.hpp"
#include "sat/parallel_solver.hpp"

namespace ftsp::core {
namespace {

using f2::BitVec;
using qec::LogicalBasis;
using qec::PauliType;

TEST(EngineKeys, DefaultFingerprint) {
  EXPECT_EQ(sat::EngineOptions{}.fingerprint(), "inc=1,cfg=1,cube=0");
}

TEST(EngineKeys, PortfolioFingerprint) {
  sat::EngineOptions engine;
  engine.num_configs = 4;
  EXPECT_EQ(engine.fingerprint(), "inc=1,cfg=4,cube=0,seed=1,rc=4096");
}

TEST(EngineKeys, SteaneStoreKeyEngineField) {
  const std::string key = compile::artifact_key(
      qec::steane(), LogicalBasis::Zero, SynthesisOptions{});
  const std::string field = "|eng=inc=1,cfg=1,cube=0";
  ASSERT_GE(key.size(), field.size());
  // All-to-all adds no coupling fragment, so the engine field ends the key.
  EXPECT_EQ(key.substr(key.size() - field.size()), field) << key;
}

/// One uncached miss per stage must store under the literal key.
TEST(EngineKeys, SynthCacheKeysPerStage) {
  auto& cache = SynthCache::instance();
  cache.clear();
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);

  const auto prep = synthesize_prep_optimal(state);
  ASSERT_TRUE(prep.has_value());
  const std::string prep_key =
      "prep|inc=0,cfg=1,cube=0|maxc=24|bud=400000|bfs=1|G=" +
      cache_key_matrix(state.stabilizer_generators(PauliType::X));
  EXPECT_TRUE(cache.lookup(prep_key).has_value()) << prep_key;

  const auto events =
      enumerate_single_fault_events(code.num_qubits(), {&*prep});
  const auto dangerous = dangerous_errors(state, PauliType::X, events);
  ASSERT_FALSE(dangerous.empty());
  const auto& generators = state.detector_generators(PauliType::X);
  ASSERT_TRUE(synthesize_verification(generators, dangerous).has_value());
  const std::string verif_key = "verif|inc=1,cfg=1,cube=0|mm=5|bud=0|G=" +
                                cache_key_matrix(generators) +
                                cache_key_errors(dangerous);
  EXPECT_TRUE(cache.lookup(verif_key).has_value()) << verif_key;

  const std::vector<BitVec> errors = {BitVec::from_string("1100000"),
                                      BitVec::from_string("0011000"),
                                      BitVec::from_string("1000100"),
                                      BitVec(7)};
  ASSERT_TRUE(synthesize_correction(state, PauliType::X, errors).has_value());
  const std::string corr_key =
      "corr|inc=1,cfg=1,cube=0|mm=4|bud=0|t=X|SX=" +
      cache_key_matrix(state.stabilizer_generators(PauliType::X)) +
      "|SZ=" + cache_key_matrix(state.stabilizer_generators(PauliType::Z)) +
      cache_key_errors(errors);
  EXPECT_TRUE(cache.lookup(corr_key).has_value()) << corr_key;

  EXPECT_EQ(cache.misses(), 3u);
  cache.clear();
}

}  // namespace
}  // namespace ftsp::core
