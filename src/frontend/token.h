// Token definitions for the MiniC front-end.
//
// MiniC is the C/C++ subset Mira analyzes in this reproduction (DESIGN.md
// substitution table: it stands in for the ROSE/EDG front-end). It covers
// functions, classes with member functions (including operator()), for /
// while / if, arrays, calls, and '#pragma @Annotation' directives.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/source_location.h"

namespace mira::frontend {

enum class TokenKind {
  // literals & identifiers
  Identifier,
  IntLiteral,
  FloatLiteral,

  // keywords
  KwInt,
  KwLong,
  KwFloat,
  KwDouble,
  KwBool,
  KwVoid,
  KwClass,
  KwPublic,
  KwFor,
  KwWhile,
  KwIf,
  KwElse,
  KwReturn,
  KwTrue,
  KwFalse,
  KwConst,
  KwOperator,

  // punctuation
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semicolon,
  Comma,
  Colon,
  Dot,
  Arrow,

  // operators
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Assign,
  PlusAssign,
  MinusAssign,
  StarAssign,
  SlashAssign,
  PlusPlus,
  MinusMinus,
  Less,
  LessEqual,
  Greater,
  GreaterEqual,
  EqualEqual,
  NotEqual,
  AmpAmp,
  PipePipe,
  Not,
  Amp,

  // '#pragma ...' directive captured as one token; text holds the body
  Pragma,

  Eof,
  Invalid,
};

const char *toString(TokenKind kind);

/// One token. `text` views the source the lexer was given, so that source
/// must outlive every token lexed from it.
struct Token {
  TokenKind kind = TokenKind::Invalid;
  /// Spelling, or a Pragma's body (everything after '#' up to the end of
  /// the directive, with its '\'-newline continuations still in place).
  std::string_view text;
  std::int64_t intValue = 0; // IntLiteral
  double floatValue = 0;     // FloatLiteral
  SourceLocation location;

  bool is(TokenKind k) const { return kind == k; }
  /// `text` with every '\'-newline continuation spliced out.
  std::string spelling() const;
  std::string str() const;
};

} // namespace mira::frontend
