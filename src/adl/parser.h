// Recursive-descent parser for the configuration language — stage 2 of the
// compiler. Produces the AST; name resolution and typing happen in sema.
#pragma once

#include <string_view>

#include "adl/ast.h"
#include "adl/diagnostics.h"

namespace aars::adl {

/// Parses a complete configuration unit, reporting problems (with line and
/// column) into `diags`. Returns the partial AST built so far; callers must
/// check `diags.ok()` before using it.
Configuration parse_ast(std::string_view source, Diagnostics& diags);

}  // namespace aars::adl
