#include "analysis/scenario_lint.h"

#include <gtest/gtest.h>

#include "analysis/architecture.h"

namespace aars::analysis {
namespace {

/// host <-> client <-> spare; no direct host-spare link.
ArchitectureModel topology() {
  ArchitectureModel model;
  model.nodes = {"host", "client", "spare"};
  model.links = {{"host", "client", 1000},
                 {"client", "host", 1000},
                 {"client", "spare", 1000},
                 {"spare", "client", 1000}};
  return model;
}

int line_of(const adl::Diagnostics& report, const std::string& code) {
  for (const adl::Diagnostic& d : report.items) {
    if (d.code == code) return d.line;
  }
  return -1;
}

TEST(ScenarioLintTest, CleanScenarioHasNoDiagnostics) {
  const std::string text =
      "# storm over the base topology\n"
      "at 500ms crash host=host for 300ms\n"
      "at 1s partition link=host-client for 200ms\n"
      "at 2s degrade link=client-spare latency=5ms jitter=1ms for 1s\n"
      "at 3s loss link=host-client p=0.3 for 250ms\n";
  const adl::Diagnostics report = lint_scenario(text, topology());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.items.size(), 0u);
}

TEST(ScenarioLintTest, SyntaxErrorCarriesLineNumber) {
  const std::string text =
      "at 500ms crash host=host for 300ms\n"
      "\n"
      "at whenever crash host=host for 300ms\n";
  const adl::Diagnostics report = lint_scenario(text);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.has("scenario-syntax"));
  EXPECT_EQ(line_of(report, "scenario-syntax"), 3);
}

TEST(ScenarioLintTest, OutOfRangeLossRejectedWithLineNumber) {
  const adl::Diagnostics report =
      lint_scenario("at 1s loss link=host-client p=1.5 for 250ms\n");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(line_of(report, "scenario-syntax"), 1);
}

TEST(ScenarioLintTest, ZeroDurationIsWarning) {
  const adl::Diagnostics report =
      lint_scenario("at 1s crash host=host for 0ms\n", topology());
  EXPECT_TRUE(report.ok());
  ASSERT_TRUE(report.has("zero-duration"));
  EXPECT_EQ(line_of(report, "zero-duration"), 1);
}

TEST(ScenarioLintTest, UnknownCrashHostDetected) {
  const adl::Diagnostics report =
      lint_scenario("at 1s crash host=ghost for 100ms\n", topology());
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.has("unknown-host"));
  EXPECT_EQ(line_of(report, "unknown-host"), 1);
}

TEST(ScenarioLintTest, UnknownLinkEndpointDetected) {
  const adl::Diagnostics report = lint_scenario(
      "at 1s partition link=host-nowhere for 100ms\n", topology());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("unknown-host"));
}

TEST(ScenarioLintTest, MissingLinkBetweenDeclaredNodesDetected) {
  // Both endpoints exist, but the topology has no host-spare link.
  const adl::Diagnostics report = lint_scenario(
      "at 1s degrade link=host-spare latency=1ms jitter=0ms for 1s\n",
      topology());
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.has("unknown-link"));
}

TEST(ScenarioLintTest, LinkDirectionDoesNotMatter) {
  const adl::Diagnostics report = lint_scenario(
      "at 1s partition link=client-host for 100ms\n", topology());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ScenarioLintTest, WithoutModelTopologyChecksAreSkipped) {
  const adl::Diagnostics report =
      lint_scenario("at 1s crash host=ghost for 100ms\n");
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_FALSE(report.has("unknown-host"));
}

TEST(ScenarioLintTest, CommentsAndBlankLinesIgnored) {
  const adl::Diagnostics report = lint_scenario(
      "# just commentary\n\n   \n# more\n", topology());
  EXPECT_EQ(report.items.size(), 0u);
}

TEST(ScenarioLintTest, DiagnosticsAccumulateAcrossLines) {
  const std::string text =
      "at 1s crash host=ghost for 100ms\n"
      "at 2s crash host=phantom for 0ms\n";
  const adl::Diagnostics report = lint_scenario(text, topology());
  EXPECT_EQ(report.errors(), 2u);   // two unknown hosts
  EXPECT_EQ(report.warnings(), 1u); // one zero-duration
  EXPECT_EQ(line_of(report, "zero-duration"), 2);
}

}  // namespace
}  // namespace aars::analysis
