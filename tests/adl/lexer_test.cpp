#include "adl/lexer.h"

#include <gtest/gtest.h>

namespace aars::adl {
namespace {

std::vector<Token> lex_ok(std::string_view src) {
  Diagnostics diags;
  std::vector<Token> tokens = lex(src, diags);
  EXPECT_TRUE(diags.ok()) << render_text(diags, "<input>", src);
  return tokens;
}

/// The only diagnostic lexing `src` reports (an empty one, after a test
/// failure, when there is not exactly one).
Diagnostic lex_error(std::string_view src) {
  Diagnostics diags;
  lex(src, diags);
  EXPECT_EQ(diags.items.size(), 1u) << render_text(diags, "<input>", src);
  return diags.items.size() == 1 ? diags.items[0] : Diagnostic{};
}

TEST(LexerTest, EmptyInputYieldsEnd) {
  const auto tokens = lex_ok("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEnd);
}

TEST(LexerTest, IdentifiersAndKeywords) {
  const auto tokens = lex_ok("component Camera provides Video");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].text, "component");
  EXPECT_EQ(tokens[1].text, "Camera");
  EXPECT_EQ(tokens[3].text, "Video");
}

TEST(LexerTest, DottedIdentifiers) {
  const auto tokens = lex_ok("cam.out");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "cam.out");
}

TEST(LexerTest, IntegerAndFloatLiterals) {
  const auto tokens = lex_ok("42 3.25 -7");
  EXPECT_EQ(tokens[0].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[1].float_value, 3.25);
  EXPECT_EQ(tokens[2].int_value, -7);
}

TEST(LexerTest, DurationUnitsNormaliseToMicroseconds) {
  const auto tokens = lex_ok("5ms 2s 100us");
  EXPECT_EQ(tokens[0].int_value, 5000);
  EXPECT_EQ(tokens[1].int_value, 2000000);
  EXPECT_EQ(tokens[2].int_value, 100);
}

TEST(LexerTest, BandwidthUnitsNormaliseToBytesPerSecond) {
  const auto tokens = lex_ok("100mbps 8bps 1gbps");
  EXPECT_DOUBLE_EQ(tokens[0].float_value, 100e6 / 8.0);
  EXPECT_DOUBLE_EQ(tokens[1].float_value, 1.0);
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 1e9 / 8.0);
}

TEST(LexerTest, UnknownUnitIsParseError) {
  const Diagnostic d = lex_error("5lightyears");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.code, "unknown-unit");
  EXPECT_EQ(d.line, 1);
  EXPECT_EQ(d.column, 2);  // the unit, just past the digits
}

TEST(LexerTest, StringsWithEscapes) {
  const auto tokens = lex_ok("\"hello world\" \"a\\\"b\"");
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "hello world");
  EXPECT_EQ(tokens[1].text, "a\"b");
}

TEST(LexerTest, UnterminatedStringFails) {
  const Diagnostic d = lex_error("\"oops");
  EXPECT_EQ(d.code, "unterminated-string");
  EXPECT_EQ(d.line, 1);
  EXPECT_EQ(d.column, 1);  // the opening quote
}

TEST(LexerTest, ArrowsAndPunctuation) {
  const auto tokens = lex_ok("a -> b <-> { } ( ) [ ] : ; , =");
  EXPECT_EQ(tokens[1].kind, TokenKind::kArrow);
  EXPECT_EQ(tokens[3].kind, TokenKind::kDuplexArrow);
  int punct = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kPunct) ++punct;
  }
  EXPECT_EQ(punct, 10);
}

TEST(LexerTest, CommentsAreSkipped) {
  const auto tokens = lex_ok("a // this is a comment\nb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, LineNumbersTracked) {
  const auto tokens = lex_ok("a\nb\n  c");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[1].loc.line, 2);
  EXPECT_EQ(tokens[2].loc.line, 3);
  EXPECT_EQ(tokens[2].loc.column, 3);
}

TEST(LexerTest, UnexpectedCharacterReportsLine) {
  const Diagnostic d = lex_error("ok\n  @");
  EXPECT_EQ(d.code, "unexpected-character");
  EXPECT_EQ(d.line, 2);
  EXPECT_EQ(d.column, 3);
}

}  // namespace
}  // namespace aars::adl
