// Structured diagnostics, shared by the ADL compiler and the analyser.
//
// Every finding, from the lexer to the configuration-space explorer, is one
// Diagnostic record: a severity, a stable kebab-case code that tests and CI
// match on, the construct it is about, a message and a 1-based source
// location.  Each stage reports into one Diagnostics list instead of
// aborting on the first problem, and one text renderer and one JSON
// renderer print the list, so `aars-lint` shows compile errors and
// verifier findings alike and CI can diff the machine-readable form.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "adl/ast.h"
#include "util/errors.h"

namespace aars::adl {

enum class Severity { kInfo, kWarning, kError };

constexpr const char* to_string(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

/// One finding. `code` is a stable kebab-case identifier (e.g.
/// "unknown-metric", "dangling-binding"); `subject` names the construct
/// (instance, connector, binding) a structural finding is about and is
/// empty for front-end findings, which point at a source location instead.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;
  std::string subject;
  std::string message;
  /// 1-based source location. line 0: the model came from a live
  /// application rather than source text; column 0: whole line.
  int line = 0;
  int column = 0;
};

/// The findings of one compile or analysis run.
struct Diagnostics {
  std::vector<Diagnostic> items;
  /// Joint LTS states explored by composition checks (verification cost).
  std::size_t states_explored = 0;
  /// A bounded exploration hit its cap; behavioural verdicts only cover
  /// the explored prefix.
  bool truncated = false;

  void add(Severity severity, std::string code, std::string subject,
           std::string message, int line = 0, int column = 0);
  /// Front-end shorthands: a subject-less finding at `loc`.
  void error(SourceLoc loc, std::string code, std::string message);
  void warning(SourceLoc loc, std::string code, std::string message);
  void merge(const Diagnostics& other);
  /// Orders findings by severity (errors first), then source location, then
  /// code, subject and message. Stable, so equal-keyed findings keep their
  /// report order — golden corpus diffs stay identical across platforms
  /// regardless of which pass emitted first.
  void sort();

  std::size_t errors() const;
  std::size_t warnings() const;
  /// True when no error-severity diagnostic was reported.
  bool ok() const { return errors() == 0; }
  /// True when a diagnostic with the given code was reported.
  bool has(const std::string& code) const;

  /// "2 error(s), 1 warning(s)" one-liner for logs.
  std::string summary() const;
  /// "[code] subject: message" of the first error (empty when ok()) — the
  /// payload of engine and explorer Status messages.
  std::string first_error() const;
  /// First error as the ADL front end's util::Error: kParseError with
  /// "line L col C: message". Precondition: !ok().
  util::Error to_error() const;
};

/// Renders one "file:line:col: severity: [code] subject: message" line per
/// diagnostic (":line:" alone when there is no column, no location when
/// there is no line).  When `source` is supplied each located diagnostic is
/// followed by the offending source line and a caret under its column:
///   app.adl:4:12: error: [unknown-metric] no metric 'flux'
///     when flux(jobs) > 5 reconfigure {
///          ^
std::string render_text(const Diagnostics& report, const std::string& file,
                        std::string_view source = {});

/// Renders the report as deterministic JSON (stable key order, no
/// timestamps) so CI can diff the output across runs.
std::string render_json(const Diagnostics& report, const std::string& file);

}  // namespace aars::adl
