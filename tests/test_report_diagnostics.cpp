#include <gtest/gtest.h>

#include "core/report.hpp"
#include "qec/code_library.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;

TEST(Report, ContainsAllSections) {
  const auto protocol =
      synthesize_protocol(qec::steane(), LogicalBasis::Zero);
  const std::string report = describe_protocol(protocol);
  EXPECT_NE(report.find("Deterministic FT preparation"), std::string::npos);
  EXPECT_NE(report.find("[[7,1,3]] Steane"), std::string::npos);
  EXPECT_NE(report.find("Preparation: 8 CNOTs"), std::string::npos);
  EXPECT_NE(report.find("Layer 1"), std::string::npos);
  EXPECT_NE(report.find("branches: 1"), std::string::npos);
  EXPECT_NE(report.find("pattern"), std::string::npos);
}

TEST(Report, NeverClaimsUnflaggedDangerousHooks) {
  // Under the default FlagDangerous policy the report must never contain
  // the warning marker.
  for (const char* name : {"Steane", "Shor", "Carbon", "Tesseract"}) {
    const auto protocol = synthesize_protocol(
        qec::library_code_by_name(name), LogicalBasis::Zero);
    const std::string report = describe_protocol(protocol);
    EXPECT_EQ(report.find("UNFLAGGED WITH DANGEROUS HOOKS"),
              std::string::npos)
        << name;
  }
}

TEST(Report, DeferredPolicyIsVisible) {
  SynthesisOptions options;
  options.flag_policy = FlagPolicy::DeferToNextLayer;
  const auto protocol =
      synthesize_protocol(qec::carbon(), LogicalBasis::Zero, options);
  const std::string report = describe_protocol(protocol);
  // Layer-1 hooks deferred to layer 2 show up as the warning marker.
  if (protocol.layer1.has_value() && protocol.layer2.has_value()) {
    EXPECT_NE(report.find("Layer 2"), std::string::npos);
  }
  EXPECT_FALSE(report.empty());
}

}  // namespace
}  // namespace ftsp::core
