// Semantic analysis — stage 3 of the compiler.
//
// ADLs "create, validate and update architectures" (§1); this pass performs
// the validation step: name resolution, attribute type checking, Wright-style
// binding compatibility at the interface level, and — new with the
// reconfiguration-native grammar — resolution of `when … reconfigure` rules,
// `goal` and `scenario` blocks against the declared topology.
#pragma once

#include <string>

#include "adl/ast.h"
#include "adl/diagnostics.h"
#include "adl/ir.h"
#include "util/errors.h"

namespace aars::adl {

/// Maps an ADL type name to a runtime ValueType. kNull encodes "any".
util::Result<util::ValueType> value_type_from_name(const std::string& name);

/// Resolves and type-checks the AST, reporting problems into `diags`.
/// Diagnostics carry line and column. Returns the topology IR; callers must
/// check `diags.ok()` before deploying it.
CompiledConfiguration analyze(Configuration config, Diagnostics& diags);

/// Interns one predicate (a property clause or a rule guard).
CompiledPredicate lower_predicate(const AstPredicate& pred);

/// Lowers `property { ... }` blocks into the flat interned-Symbol clause
/// table the configuration-space explorer consumes. Names must already have
/// been resolved by `analyze`.
std::vector<CompiledPathProperty> lower_properties(const Configuration& ast);

}  // namespace aars::adl
