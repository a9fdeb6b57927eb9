// aars-lint — standalone static checker for ADL architectures and fault
// scenarios.
//
// Usage:
//   aars-lint [options] file.adl [more.adl ...] [storm.fault ...]
//
//   --json           machine-readable output (one JSON array, stable field
//                    order, no timing) on stdout
//   --strict         exit nonzero on warnings too
//   --no-protocols   skip n-way protocol composition (large architectures)
//   --max-states N   joint-state bound for protocol composition
//   --explore        model-check reconfiguration rules: explore the
//                    reachable-configuration graph, verify every reached
//                    configuration and check declared `property` blocks,
//                    reporting counterexample rule-firing paths
//   --max-configs N  exploration bound on discovered configurations
//   --max-depth N    exploration bound on firing-sequence depth
//
// Files ending in .adl are parsed, validated and run through the whole-
// architecture verifier.  Every other file is treated as a fault-scenario
// text file; its host and link names are cross-checked against the most
// recently compiled architecture on the command line (list the .adl before
// its storms).  Diagnostics carry 1-based line numbers and are ordered by
// severity, then source location, then message.
//
// Exit code: 0 clean, 1 diagnostics found (errors; warnings too under
// --strict), 2 usage or I/O failure.  Timing goes to stderr so --json
// output stays byte-stable for CI diffing.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adl/diagnostics.h"
#include "analysis/adl_screen.h"
#include "analysis/architecture.h"
#include "analysis/explorer.h"
#include "analysis/scenario_lint.h"
#include "analysis/verifier.h"
#include "util/strings.h"

namespace {

bool is_adl_file(const std::string& path) {
  return aars::util::ends_with(path, ".adl");
}

/// Parses the value of a numeric `flag` at argv[i + 1]. Missing or
/// non-numeric values are usage errors (exit 2) — a silent strtoull
/// fallback to 0 would disable the bound instead of enforcing it.
bool parse_count(int argc, char** argv, int& i, const char* flag,
                 std::size_t& out) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "aars-lint: %s needs a value\n", flag);
    return false;
  }
  const char* text = argv[++i];
  if (*text == '\0') {
    std::fprintf(stderr, "aars-lint: %s needs a value\n", flag);
    return false;
  }
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      std::fprintf(stderr, "aars-lint: %s needs a non-negative integer, got "
                           "'%s'\n",
                   flag, text);
      return false;
    }
  }
  out = std::strtoull(text, nullptr, 10);
  return true;
}

/// Full five-stage compile (lex -> parse -> sema -> emit -> analysis
/// screen): the compiler's structured diagnostics carry line AND column,
/// so lint output stays clickable without scraping error messages.  A
/// configuration that compiles also runs the whole-architecture verifier
/// and — under --explore — the configuration-space explorer.
aars::adl::Diagnostics lint_adl_file(
    const std::string& text,
    const aars::analysis::VerifierOptions& options, bool explore,
    const aars::analysis::ExplorerOptions& explorer_options,
    std::optional<aars::analysis::ArchitectureModel>& last_model) {
  aars::adl::CompilationResult result =
      aars::analysis::compile_adl(text, options);
  aars::adl::Diagnostics report = std::move(result.diagnostics);
  if (!report.ok()) return report;
  const aars::analysis::ArchitectureModel model =
      aars::analysis::model_from(result.config);
  report.merge(aars::analysis::verify_architecture(model, options));
  // Explore only architectures whose snapshot is clean: a defective initial
  // configuration would be re-reported from every reachable state.
  if (explore && report.errors() == 0 &&
      (!result.program.rules.empty() || !result.program.properties.empty())) {
    report.merge(
        aars::analysis::explore(model, result.program, explorer_options)
            .report);
  }
  last_model = model;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool strict = false;
  bool explore = false;
  aars::analysis::VerifierOptions options;
  aars::analysis::ExplorerOptions explorer_options;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--no-protocols") {
      options.check_protocols = false;
    } else if (arg == "--explore") {
      explore = true;
    } else if (arg == "--max-states") {
      if (!parse_count(argc, argv, i, "--max-states", options.max_states)) {
        return 2;
      }
    } else if (arg == "--max-configs") {
      if (!parse_count(argc, argv, i, "--max-configs",
                       explorer_options.max_configs)) {
        return 2;
      }
    } else if (arg == "--max-depth") {
      if (!parse_count(argc, argv, i, "--max-depth",
                       explorer_options.max_depth)) {
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: aars-lint [--json] [--strict] [--no-protocols] "
                   "[--max-states N] [--explore] [--max-configs N] "
                   "[--max-depth N] file.adl [storm.fault ...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "aars-lint: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "aars-lint: no input files (try --help)\n");
    return 2;
  }

  const auto started = std::chrono::steady_clock::now();
  std::optional<aars::analysis::ArchitectureModel> last_model;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t states = 0;
  std::string json_out = "[";
  bool first_json = true;

  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "aars-lint: cannot read '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    aars::adl::Diagnostics report;
    if (is_adl_file(path)) {
      report = lint_adl_file(text, options, explore, explorer_options,
                             last_model);
    } else if (last_model.has_value()) {
      report = aars::analysis::lint_scenario(text, *last_model);
    } else {
      report = aars::analysis::lint_scenario(text);
    }
    report.sort();
    errors += report.errors();
    warnings += report.warnings();
    states += report.states_explored;

    if (json) {
      if (!first_json) json_out += ",";
      first_json = false;
      json_out += aars::adl::render_json(report, path);
    } else {
      std::fputs(aars::adl::render_text(report, path).c_str(), stdout);
    }
  }

  if (json) {
    json_out += "]";
    std::printf("%s\n", json_out.c_str());
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - started);
  std::fprintf(stderr,
               "aars-lint: %zu file(s), %zu error(s), %zu warning(s), "
               "%zu joint state(s) explored, %lld us\n",
               files.size(), errors, warnings, states,
               static_cast<long long>(elapsed.count()));
  if (errors > 0) return 1;
  if (strict && warnings > 0) return 1;
  return 0;
}
