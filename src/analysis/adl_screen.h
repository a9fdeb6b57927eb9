// Compile-time screening of ADL reconfiguration artifacts.
//
// The adl compiler cannot link the analyser (the analyser already links the
// runtime, which links adl), so `adl::compile()` exposes a Screen hook and
// this translation unit provides the analysis-side implementation:
//
//   * every `when … reconfigure` rule is lowered to an analysis::Plan and
//     pre-verified with verify_plan() against the declared architecture —
//     a rule whose firing could never pass the engine's verifier is a
//     compile error, not a runtime surprise;
//   * every `goal` latency upper bound is checked against the topology's
//     round-trip latency floor (infeasible goals fail at compile time);
//   * every `scenario` fault line runs through the fault-scenario lint
//     with host/link names resolved against the declared topology.
#pragma once

#include <string>
#include <string_view>

#include "adl/compiler.h"
#include "analysis/plan.h"
#include "analysis/verifier.h"

namespace aars::analysis {

/// Lowers a compiled rule's actions into an analysis plan, one step per
/// action.
Plan plan_from(const adl::CompiledRule& rule);

/// Builds the Screen hook `adl::CompileOptions` accepts.
adl::CompileOptions::Screen make_compile_screen(VerifierOptions options = {});

/// Convenience wrappers: `adl::compile()` with the analysis screen
/// installed. This is the full five-stage pipeline every offline consumer
/// (aars-lint, tests, examples) should use.
adl::CompilationResult compile_adl(std::string_view source,
                                   VerifierOptions options = {});
adl::CompilationResult compile_adl_file(const std::string& path,
                                        VerifierOptions options = {});

}  // namespace aars::analysis
