// Tokeniser for the configuration language — stage 1 of the compiler.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "adl/ast.h"
#include "adl/diagnostics.h"

namespace aars::adl {

enum class TokenKind {
  kIdentifier,  // foo, foo.bar
  kInteger,     // 42 (after unit normalisation)
  kFloat,       // 3.14
  kString,      // "text"
  kPunct,       // { } ( ) [ ] : ; , = ? !
  kCompare,     // < <= > >= == !=
  kArrow,       // ->
  kDuplexArrow, // <->
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;        // identifier/punct/compare text or string contents
  std::int64_t int_value = 0;
  double float_value = 0.0;
  SourceLoc loc;
};

/// Tokenises `source`, reporting problems into `diags` (and recovering, so
/// later stages can surface several errors at once). Units on numbers are
/// normalised:
///   durations -> microseconds: us, ms, s
///   rates     -> bytes/second: bps, kbps, mbps, gbps (decimal, bits input)
/// Comments run from `//` to end of line.
std::vector<Token> lex(std::string_view source, Diagnostics& diags);

}  // namespace aars::adl
