// Hand-written lexer for MiniC.
//
// Produces the whole token stream up front (sources are small). Handles
// //- and /* */-comments, decimal integer and floating literals, and
// captures '#pragma ...' lines as single Pragma tokens so the parser can
// attach '@Annotation' payloads to the following statement (paper
// Sec. III-B4). Tokens view the source rather than copy it, so lexing
// allocates only the token vector.
#pragma once

#include <string_view>
#include <vector>

#include "frontend/token.h"
#include "support/diagnostics.h"

namespace mira::frontend {

class Lexer {
public:
  /// `source` is viewed, not copied: it must outlive the lexer and every
  /// token it returns.
  Lexer(std::string_view source, DiagnosticEngine &diags);

  /// Tokenize the entire input; always ends with an Eof token.
  std::vector<Token> tokenize();

private:
  char peek(std::size_t offset = 0) const;
  char advance();
  bool match(char expected);
  bool atEnd() const { return pos_ >= source_.size(); }
  SourceLocation here() const { return {line_, column_}; }

  void skipWhitespaceAndComments();
  Token lexNumber();
  Token lexIdentifierOrKeyword();
  Token lexPragma();
  Token makeToken(TokenKind kind, std::string_view text,
                  SourceLocation loc) const;
  /// The source from byte `start` up to the current position.
  std::string_view sliceFrom(std::size_t start) const {
    return source_.substr(start, pos_ - start);
  }

  std::string_view source_;
  DiagnosticEngine &diags_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t column_ = 1;
};

} // namespace mira::frontend
