// Analysis-output golden: every shipped and seeded-defect architecture is
// compiled, verified and explored, and the raw outputs are reduced to a
// text transcript compared against a committed golden file.
//
// lint_corpus sorts its diagnostics, so it cannot see a change in the order
// the verifier *emits* them — yet that order picks the first error, whose
// text becomes the engine's Status message and the explorer's unsafe-config
// message.  This transcript records, per file:
//   * the screened compile's diagnostics (severity, code, message), in order;
//   * verify_architecture's diagnostics (severity, code, subject) in
//     emission order, plus first_error();
//   * explore()'s order digest, configuration/edge/aborted/transient counts
//     and its diagnostics in emission order.
//
// Regenerating the golden (only when analysis behaviour changes
// INTENTIONALLY):
//   AARS_UPDATE_GOLDEN=1 ./tests/analysis_test
//       --gtest_filter=AnalysisGoldenTest.*
// (one command line, run from the build directory).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adl/compiler.h"
#include "analysis/adl_screen.h"
#include "analysis/architecture.h"
#include "analysis/explorer.h"
#include "analysis/verifier.h"

namespace aars::analysis {
namespace {

#ifndef AARS_GOLDEN_DIR
#define AARS_GOLDEN_DIR "."
#endif

std::string golden_path() {
  return std::string(AARS_GOLDEN_DIR) + "/analysis_outputs.txt";
}

/// configs/*.adl then configs/defects/*.adl, each group in name order, as
/// paths relative to the config directory.
std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const std::string dir : {"", "defects/"}) {
    std::vector<std::string> group;
    const std::filesystem::path root = std::string(AARS_CONFIG_DIR) + "/" + dir;
    for (const auto& entry : std::filesystem::directory_iterator(root)) {
      if (entry.is_regular_file() && entry.path().extension() == ".adl") {
        group.push_back(dir + entry.path().filename().string());
      }
    }
    std::sort(group.begin(), group.end());
    files.insert(files.end(), group.begin(), group.end());
  }
  return files;
}

std::string read_file(const std::string& relative) {
  std::ifstream in(std::string(AARS_CONFIG_DIR) + "/" + relative);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_report(std::ostream& out, const char* label,
                  const AnalysisReport& report) {
  for (const Diagnostic& d : report.diagnostics) {
    out << label << ": " << to_string(d.severity) << " " << d.code << " | "
        << d.subject << "\n";
  }
}

std::string transcript() {
  std::ostringstream out;
  for (const std::string& file : corpus_files()) {
    const std::string source = read_file(file);
    out << "== " << file << "\n";
    const adl::CompilationResult screened = compile_adl(source);
    for (const adl::Diagnostic& d : screened.diagnostics.items()) {
      out << "compile: " << adl::to_string(d.severity) << " " << d.code
          << " | " << d.message << "\n";
    }
    // The front end alone decides whether there is a model to analyse; the
    // screen's verdict is already recorded above.
    const adl::CompilationResult compiled = adl::compile(source);
    if (!compiled.ok()) {
      out << "front-end: failed\n";
      continue;
    }
    const ArchitectureModel model = model_from(compiled.config);
    const AnalysisReport verdict = verify_architecture(model);
    write_report(out, "verify", verdict);
    out << "verify-first-error: " << verdict.first_error() << "\n";

    const ExplorationResult explored = explore(model, compiled.program);
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(explored.order_digest));
    out << "explore: digest=" << digest
        << " configs=" << explored.graph.states.size()
        << " edges=" << explored.graph.edges.size()
        << " aborted=" << explored.aborted_firings
        << " transients=" << explored.transients.size() << "\n";
    write_report(out, "explore", explored.report);
    out << "explore-first-error: " << explored.report.first_error() << "\n";
  }
  return out.str();
}

TEST(AnalysisGoldenTest, CorpusOutputsMatchGolden) {
  const std::string text = transcript();
  if (std::getenv("AARS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << text;
    GTEST_SKIP() << "golden updated: " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with AARS_UPDATE_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str())
      << "analysis outputs diverged from the committed golden — a "
         "diagnostic's emission order or an exploration count changed";
}

}  // namespace
}  // namespace aars::analysis
