// Lint for fault-scenario text files (src/fault scenario format).
//
// Checks each line parses, flags suspicious schedules (zero-duration
// faults, out-of-range loss probabilities), and — when an architecture
// model is supplied — cross-checks every host and link endpoint against
// the declared topology, so a scenario that names a node the architecture
// does not have fails lint instead of silently arming no faults.
#pragma once

#include "analysis/architecture.h"
#include "adl/diagnostics.h"

namespace aars::analysis {

/// Lints scenario `text`; diagnostics carry 1-based line numbers.
adl::Diagnostics lint_scenario(const std::string& text);

/// Same, additionally resolving host/link names against `model`.
adl::Diagnostics lint_scenario(const std::string& text,
                               const ArchitectureModel& model);

}  // namespace aars::analysis
