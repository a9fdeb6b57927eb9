#include "adl/lexer.h"

#include <cctype>

#include "util/strings.h"

namespace aars::adl {

namespace {

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;
  int line = 1;
  int column = 1;

  bool done() const { return pos >= text.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos + ahead < text.size() ? text[pos + ahead] : '\0';
  }
  char advance() {
    const char c = text[pos++];
    if (c == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
    return c;
  }
  SourceLoc loc() const { return SourceLoc{line, column}; }
};

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

/// Applies a unit suffix to a numeric literal. Returns false for unknown
/// suffixes.
bool apply_unit(const std::string& unit, double& value, bool& is_integer) {
  if (unit.empty()) return true;
  if (unit == "us") {
    is_integer = true;
    return true;
  }
  if (unit == "ms") {
    value *= 1000.0;
    is_integer = true;
    return true;
  }
  if (unit == "s") {
    value *= 1e6;
    is_integer = true;
    return true;
  }
  // Bandwidth: input in bits/sec, normalised to bytes/sec.
  if (unit == "bps") {
    value /= 8.0;
    return true;
  }
  if (unit == "kbps") {
    value *= 1e3 / 8.0;
    return true;
  }
  if (unit == "mbps") {
    value *= 1e6 / 8.0;
    return true;
  }
  if (unit == "gbps") {
    value *= 1e9 / 8.0;
    return true;
  }
  return false;
}

}  // namespace

std::vector<Token> lex(std::string_view source, Diagnostics& diags) {
  std::vector<Token> tokens;
  Cursor cur{source};

  while (!cur.done()) {
    const char c = cur.peek();
    // Whitespace.
    if (std::isspace(static_cast<unsigned char>(c))) {
      cur.advance();
      continue;
    }
    // Comments.
    if (c == '/' && cur.peek(1) == '/') {
      while (!cur.done() && cur.peek() != '\n') cur.advance();
      continue;
    }
    const SourceLoc loc = cur.loc();
    // Identifiers / keywords.
    if (is_ident_start(c)) {
      std::string text;
      while (!cur.done() && is_ident_char(cur.peek())) text += cur.advance();
      tokens.push_back(Token{TokenKind::kIdentifier, text, 0, 0.0, loc});
      continue;
    }
    // Numbers, possibly negative, with optional unit suffix.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && std::isdigit(static_cast<unsigned char>(cur.peek(1))))) {
      std::string digits;
      bool has_dot = false;
      if (cur.peek() == '-') digits += cur.advance();
      while (!cur.done() &&
             (std::isdigit(static_cast<unsigned char>(cur.peek())) ||
              (cur.peek() == '.' && !has_dot &&
               std::isdigit(static_cast<unsigned char>(cur.peek(1)))))) {
        if (cur.peek() == '.') has_dot = true;
        digits += cur.advance();
      }
      const SourceLoc unit_loc = cur.loc();
      std::string unit;
      while (!cur.done() &&
             std::isalpha(static_cast<unsigned char>(cur.peek()))) {
        unit += cur.advance();
      }
      double value = std::stod(digits);
      bool is_integer = !has_dot;
      if (!apply_unit(unit, value, is_integer)) {
        diags.error(unit_loc, "unknown-unit",
                    util::format("unknown unit '%s'", unit.c_str()));
        continue;
      }
      Token token;
      token.loc = loc;
      if (is_integer) {
        token.kind = TokenKind::kInteger;
        token.int_value = static_cast<std::int64_t>(value);
        token.float_value = value;
      } else {
        token.kind = TokenKind::kFloat;
        token.float_value = value;
      }
      tokens.push_back(std::move(token));
      continue;
    }
    // Strings.
    if (c == '"') {
      cur.advance();
      std::string text;
      while (!cur.done() && cur.peek() != '"') {
        if (cur.peek() == '\\') {
          cur.advance();
          if (cur.done()) break;
        }
        text += cur.advance();
      }
      if (cur.done()) {
        diags.error(loc, "unterminated-string", "unterminated string");
        break;
      }
      cur.advance();  // closing quote
      tokens.push_back(Token{TokenKind::kString, text, 0, 0.0, loc});
      continue;
    }
    // Arrows (the duplex arrow must win over `<` comparison).
    if (c == '-' && cur.peek(1) == '>') {
      cur.advance();
      cur.advance();
      tokens.push_back(Token{TokenKind::kArrow, "->", 0, 0.0, loc});
      continue;
    }
    if (c == '<' && cur.peek(1) == '-' && cur.peek(2) == '>') {
      cur.advance();
      cur.advance();
      cur.advance();
      tokens.push_back(Token{TokenKind::kDuplexArrow, "<->", 0, 0.0, loc});
      continue;
    }
    // Comparison operators for rule conditions and goal bounds. Two-char
    // forms first; bare `=`, `?`, `!` stay punctuation (attribute override
    // and protocol direction markers).
    if ((c == '<' || c == '>' || c == '=' || c == '!') && cur.peek(1) == '=') {
      cur.advance();
      cur.advance();
      tokens.push_back(
          Token{TokenKind::kCompare, std::string(1, c) + "=", 0, 0.0, loc});
      continue;
    }
    if (c == '<' || c == '>') {
      cur.advance();
      tokens.push_back(
          Token{TokenKind::kCompare, std::string(1, c), 0, 0.0, loc});
      continue;
    }
    // Single-character punctuation. `?` and `!` are the protocol-transition
    // direction markers (input/output) used inside `protocol { ... }` blocks.
    if (std::string("{}()[]:;,=?!").find(c) != std::string::npos) {
      cur.advance();
      tokens.push_back(
          Token{TokenKind::kPunct, std::string(1, c), 0, 0.0, loc});
      continue;
    }
    diags.error(loc, "unexpected-character",
                util::format("unexpected character '%c'", c));
    cur.advance();
  }
  tokens.push_back(Token{TokenKind::kEnd, "", 0, 0.0, cur.loc()});
  return tokens;
}

}  // namespace aars::adl
