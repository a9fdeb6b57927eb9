#include "adl/diagnostics.h"

#include <algorithm>
#include <tuple>

#include "obs/export.h"
#include "util/strings.h"

namespace aars::adl {

void Diagnostics::add(Severity severity, std::string code,
                      std::string subject, std::string message, int line,
                      int column) {
  items.push_back(Diagnostic{severity, std::move(code), std::move(subject),
                             std::move(message), line, column});
}

void Diagnostics::error(SourceLoc loc, std::string code,
                        std::string message) {
  add(Severity::kError, std::move(code), {}, std::move(message), loc.line,
      loc.column);
}

void Diagnostics::warning(SourceLoc loc, std::string code,
                          std::string message) {
  add(Severity::kWarning, std::move(code), {}, std::move(message), loc.line,
      loc.column);
}

void Diagnostics::merge(const Diagnostics& other) {
  items.insert(items.end(), other.items.begin(), other.items.end());
  states_explored += other.states_explored;
  truncated = truncated || other.truncated;
}

void Diagnostics::sort() {
  const auto rank = [](Severity s) {
    switch (s) {
      case Severity::kError: return 0;
      case Severity::kWarning: return 1;
      case Severity::kInfo: return 2;
    }
    return 3;
  };
  std::stable_sort(items.begin(), items.end(),
                   [&](const Diagnostic& a, const Diagnostic& b) {
                     return std::make_tuple(rank(a.severity), a.line, a.column,
                                            std::cref(a.code),
                                            std::cref(a.subject),
                                            std::cref(a.message)) <
                            std::make_tuple(rank(b.severity), b.line, b.column,
                                            std::cref(b.code),
                                            std::cref(b.subject),
                                            std::cref(b.message));
                   });
}

std::size_t Diagnostics::errors() const {
  return static_cast<std::size_t>(
      std::count_if(items.begin(), items.end(), [](const Diagnostic& d) {
        return d.severity == Severity::kError;
      }));
}

std::size_t Diagnostics::warnings() const {
  return static_cast<std::size_t>(
      std::count_if(items.begin(), items.end(), [](const Diagnostic& d) {
        return d.severity == Severity::kWarning;
      }));
}

bool Diagnostics::has(const std::string& code) const {
  return std::any_of(items.begin(), items.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

std::string Diagnostics::summary() const {
  return util::format("%zu error(s), %zu warning(s)", errors(), warnings());
}

std::string Diagnostics::first_error() const {
  for (const Diagnostic& d : items) {
    if (d.severity == Severity::kError) {
      return "[" + d.code + "] " + d.subject + ": " + d.message;
    }
  }
  return {};
}

util::Error Diagnostics::to_error() const {
  for (const Diagnostic& d : items) {
    if (d.severity != Severity::kError) continue;
    std::string where = util::format("line %d", d.line);
    if (d.column > 0) where += util::format(" col %d", d.column);
    return util::Error{util::ErrorCode::kParseError, where + ": " + d.message};
  }
  return util::Error{util::ErrorCode::kInternal,
                     "to_error() on a clean Diagnostics"};
}

namespace {

/// Extracts (1-based) line `n` of `source`; empty when out of range.
std::string_view source_line(std::string_view source, int n) {
  if (n <= 0) return {};
  std::size_t start = 0;
  for (int i = 1; i < n; ++i) {
    const std::size_t nl = source.find('\n', start);
    if (nl == std::string_view::npos) return {};
    start = nl + 1;
  }
  const std::size_t end = source.find('\n', start);
  return source.substr(start,
                       end == std::string_view::npos ? end : end - start);
}

}  // namespace

std::string render_text(const Diagnostics& report, const std::string& file,
                        std::string_view source) {
  std::string out;
  for (const Diagnostic& d : report.items) {
    out += file;
    if (d.line > 0) out += util::format(":%d", d.line);
    if (d.line > 0 && d.column > 0) out += util::format(":%d", d.column);
    out += ": ";
    out += to_string(d.severity);
    out += ": [" + d.code + "] ";
    if (!d.subject.empty()) out += d.subject + ": ";
    out += d.message + "\n";
    const std::string_view text = source_line(source, d.line);
    if (text.empty()) continue;
    out += "  " + std::string(text) + "\n";
    if (d.column <= 0) continue;
    out += "  ";
    // Tabs keep their width so the caret lands under the token.
    for (int i = 1; i < d.column && i <= static_cast<int>(text.size()); ++i) {
      out += text[i - 1] == '\t' ? '\t' : ' ';
    }
    out += "^\n";
  }
  return out;
}

std::string render_json(const Diagnostics& report, const std::string& file) {
  std::string out = "{\"file\":\"" + obs::json_escape(file) + "\",";
  out += util::format("\"errors\":%zu,\"warnings\":%zu,", report.errors(),
                      report.warnings());
  out += util::format("\"truncated\":%s,", report.truncated ? "true" : "false");
  out += "\"diagnostics\":[";
  for (std::size_t i = 0; i < report.items.size(); ++i) {
    const Diagnostic& d = report.items[i];
    if (i > 0) out += ",";
    // "column" is emitted only when known, so structural findings, which
    // locate whole constructs, serialise without it.
    out += util::format("{\"line\":%d,", d.line);
    if (d.column > 0) out += util::format("\"column\":%d,", d.column);
    out += util::format(
        "\"severity\":\"%s\",\"code\":\"%s\",\"subject\":\"%s\","
        "\"message\":\"%s\"}",
        to_string(d.severity), obs::json_escape(d.code).c_str(),
        obs::json_escape(d.subject).c_str(),
        obs::json_escape(d.message).c_str());
  }
  out += "]}";
  return out;
}

}  // namespace aars::adl
