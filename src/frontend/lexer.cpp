#include "frontend/lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

namespace mira::frontend {

const char *toString(TokenKind kind) {
  switch (kind) {
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::FloatLiteral:
    return "float literal";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwLong:
    return "'long'";
  case TokenKind::KwFloat:
    return "'float'";
  case TokenKind::KwDouble:
    return "'double'";
  case TokenKind::KwBool:
    return "'bool'";
  case TokenKind::KwVoid:
    return "'void'";
  case TokenKind::KwClass:
    return "'class'";
  case TokenKind::KwPublic:
    return "'public'";
  case TokenKind::KwFor:
    return "'for'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::KwConst:
    return "'const'";
  case TokenKind::KwOperator:
    return "'operator'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Arrow:
    return "'->'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::PlusAssign:
    return "'+='";
  case TokenKind::MinusAssign:
    return "'-='";
  case TokenKind::StarAssign:
    return "'*='";
  case TokenKind::SlashAssign:
    return "'/='";
  case TokenKind::PlusPlus:
    return "'++'";
  case TokenKind::MinusMinus:
    return "'--'";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEqual:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEqual:
    return "'>='";
  case TokenKind::EqualEqual:
    return "'=='";
  case TokenKind::NotEqual:
    return "'!='";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::Not:
    return "'!'";
  case TokenKind::Amp:
    return "'&'";
  case TokenKind::Pragma:
    return "pragma";
  case TokenKind::Eof:
    return "end of file";
  case TokenKind::Invalid:
    return "invalid token";
  }
  return "?";
}

std::string Token::spelling() const {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size() && text[i + 1] == '\n')
      ++i;
    else
      out += text[i];
  }
  return out;
}

std::string Token::str() const {
  std::string out = toString(kind);
  out += " '";
  out += spelling();
  out += '\'';
  return out;
}

Lexer::Lexer(std::string_view source, DiagnosticEngine &diags)
    : source_(source), diags_(diags) {}

char Lexer::peek(std::size_t offset) const {
  return pos_ + offset < source_.size() ? source_[pos_ + offset] : '\0';
}

char Lexer::advance() {
  char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

bool Lexer::match(char expected) {
  if (atEnd() || peek() != expected)
    return false;
  advance();
  return true;
}

void Lexer::skipWhitespaceAndComments() {
  while (!atEnd()) {
    char c = peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
    } else if (c == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
    } else if (c == '/' && peek(1) == '*') {
      SourceLocation start = here();
      advance();
      advance();
      bool closed = false;
      while (!atEnd()) {
        if (peek() == '*' && peek(1) == '/') {
          advance();
          advance();
          closed = true;
          break;
        }
        advance();
      }
      if (!closed)
        diags_.error(start, "unterminated block comment");
    } else {
      break;
    }
  }
}

Token Lexer::makeToken(TokenKind kind, std::string_view text,
                       SourceLocation loc) const {
  Token t;
  t.kind = kind;
  t.text = text;
  t.location = loc;
  return t;
}

namespace {

/// Calls `parse` with a NUL-terminated copy of `text`: strtoll and strtod
/// read up to a NUL, and the byte after a token belongs to the source.
template <class Parse> auto parseTerminated(std::string_view text,
                                            Parse parse) {
  char small[64];
  if (text.size() < sizeof small) {
    std::memcpy(small, text.data(), text.size());
    small[text.size()] = '\0';
    return parse(small);
  }
  return parse(std::string(text).c_str());
}

/// Keyword kind of an identifier's spelling, or Identifier: the length
/// picks the few keywords to compare against.
TokenKind keywordKind(std::string_view s) {
  struct Keyword {
    std::string_view spelling;
    TokenKind kind;
  };
  auto among = [s](std::initializer_list<Keyword> keywords) {
    for (const Keyword &k : keywords)
      if (s == k.spelling)
        return k.kind;
    return TokenKind::Identifier;
  };
  switch (s.size()) {
  case 2:
    return among({{"if", TokenKind::KwIf}});
  case 3:
    return among({{"int", TokenKind::KwInt}, {"for", TokenKind::KwFor}});
  case 4:
    return among({{"long", TokenKind::KwLong},
                  {"bool", TokenKind::KwBool},
                  {"void", TokenKind::KwVoid},
                  {"else", TokenKind::KwElse},
                  {"true", TokenKind::KwTrue}});
  case 5:
    return among({{"float", TokenKind::KwFloat},
                  {"class", TokenKind::KwClass},
                  {"while", TokenKind::KwWhile},
                  {"false", TokenKind::KwFalse},
                  {"const", TokenKind::KwConst}});
  case 6:
    return among({{"double", TokenKind::KwDouble},
                  {"public", TokenKind::KwPublic},
                  {"return", TokenKind::KwReturn}});
  case 8:
    return among({{"operator", TokenKind::KwOperator}});
  default:
    return TokenKind::Identifier;
  }
}

bool isDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

} // namespace

Token Lexer::lexNumber() {
  SourceLocation loc = here();
  const std::size_t start = pos_;
  bool isFloat = false;
  while (isDigit(peek()))
    advance();
  if (peek() == '.' && isDigit(peek(1))) {
    isFloat = true;
    advance();
    while (isDigit(peek()))
      advance();
  }
  if (peek() == 'e' || peek() == 'E') {
    char next = peek(1);
    if (isDigit(next) || ((next == '+' || next == '-') && isDigit(peek(2)))) {
      isFloat = true;
      advance();
      if (peek() == '+' || peek() == '-')
        advance();
      while (isDigit(peek()))
        advance();
    }
  }
  const std::string_view text = sliceFrom(start);
  Token t = makeToken(isFloat ? TokenKind::FloatLiteral
                              : TokenKind::IntLiteral,
                      text, loc);
  if (isFloat) {
    t.floatValue = parseTerminated(
        text, [](const char *s) { return std::strtod(s, nullptr); });
  } else {
    errno = 0;
    t.intValue = parseTerminated(
        text, [](const char *s) { return std::strtoll(s, nullptr, 10); });
    if (errno == ERANGE)
      diags_.error(loc, "integer literal out of range: " + std::string(text));
  }
  return t;
}

Token Lexer::lexIdentifierOrKeyword() {
  SourceLocation loc = here();
  const std::size_t start = pos_;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
    advance();
  const std::string_view text = sliceFrom(start);
  return makeToken(keywordKind(text), text, loc);
}

Token Lexer::lexPragma() {
  SourceLocation loc = here();
  const std::size_t start = pos_;
  // Consume to end of line, honoring backslash continuations (the paper's
  // Listing 6 splits an annotation across lines with '\'). They stay in
  // the token's text; Token::spelling() splices them out.
  while (!atEnd() && peek() != '\n') {
    if (peek() == '\\' && peek(1) == '\n')
      advance();
    advance();
  }
  return makeToken(TokenKind::Pragma, sliceFrom(start), loc);
}

std::vector<Token> Lexer::tokenize() {
  std::vector<Token> tokens;
  // Sources average about one token per three bytes; reserving for one
  // per two makes regrowth rare.
  tokens.reserve(source_.size() / 2 + 16);
  while (true) {
    skipWhitespaceAndComments();
    if (atEnd())
      break;
    SourceLocation loc = here();
    char c = peek();
    if (c == '#') {
      advance();
      tokens.push_back(lexPragma());
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      tokens.push_back(lexNumber());
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      tokens.push_back(lexIdentifierOrKeyword());
      continue;
    }
    advance();
    switch (c) {
    case '(':
      tokens.push_back(makeToken(TokenKind::LParen, "(", loc));
      break;
    case ')':
      tokens.push_back(makeToken(TokenKind::RParen, ")", loc));
      break;
    case '{':
      tokens.push_back(makeToken(TokenKind::LBrace, "{", loc));
      break;
    case '}':
      tokens.push_back(makeToken(TokenKind::RBrace, "}", loc));
      break;
    case '[':
      tokens.push_back(makeToken(TokenKind::LBracket, "[", loc));
      break;
    case ']':
      tokens.push_back(makeToken(TokenKind::RBracket, "]", loc));
      break;
    case ';':
      tokens.push_back(makeToken(TokenKind::Semicolon, ";", loc));
      break;
    case ',':
      tokens.push_back(makeToken(TokenKind::Comma, ",", loc));
      break;
    case ':':
      tokens.push_back(makeToken(TokenKind::Colon, ":", loc));
      break;
    case '.':
      tokens.push_back(makeToken(TokenKind::Dot, ".", loc));
      break;
    case '+':
      if (match('+'))
        tokens.push_back(makeToken(TokenKind::PlusPlus, "++", loc));
      else if (match('='))
        tokens.push_back(makeToken(TokenKind::PlusAssign, "+=", loc));
      else
        tokens.push_back(makeToken(TokenKind::Plus, "+", loc));
      break;
    case '-':
      if (match('-'))
        tokens.push_back(makeToken(TokenKind::MinusMinus, "--", loc));
      else if (match('='))
        tokens.push_back(makeToken(TokenKind::MinusAssign, "-=", loc));
      else if (match('>'))
        tokens.push_back(makeToken(TokenKind::Arrow, "->", loc));
      else
        tokens.push_back(makeToken(TokenKind::Minus, "-", loc));
      break;
    case '*':
      if (match('='))
        tokens.push_back(makeToken(TokenKind::StarAssign, "*=", loc));
      else
        tokens.push_back(makeToken(TokenKind::Star, "*", loc));
      break;
    case '/':
      if (match('='))
        tokens.push_back(makeToken(TokenKind::SlashAssign, "/=", loc));
      else
        tokens.push_back(makeToken(TokenKind::Slash, "/", loc));
      break;
    case '%':
      tokens.push_back(makeToken(TokenKind::Percent, "%", loc));
      break;
    case '=':
      if (match('='))
        tokens.push_back(makeToken(TokenKind::EqualEqual, "==", loc));
      else
        tokens.push_back(makeToken(TokenKind::Assign, "=", loc));
      break;
    case '<':
      if (match('='))
        tokens.push_back(makeToken(TokenKind::LessEqual, "<=", loc));
      else
        tokens.push_back(makeToken(TokenKind::Less, "<", loc));
      break;
    case '>':
      if (match('='))
        tokens.push_back(makeToken(TokenKind::GreaterEqual, ">=", loc));
      else
        tokens.push_back(makeToken(TokenKind::Greater, ">", loc));
      break;
    case '!':
      if (match('='))
        tokens.push_back(makeToken(TokenKind::NotEqual, "!=", loc));
      else
        tokens.push_back(makeToken(TokenKind::Not, "!", loc));
      break;
    case '&':
      if (match('&'))
        tokens.push_back(makeToken(TokenKind::AmpAmp, "&&", loc));
      else
        tokens.push_back(makeToken(TokenKind::Amp, "&", loc));
      break;
    case '|':
      if (match('|')) {
        tokens.push_back(makeToken(TokenKind::PipePipe, "||", loc));
      } else {
        diags_.error(loc, "unexpected character '|'");
        tokens.push_back(makeToken(TokenKind::Invalid, "|", loc));
      }
      break;
    default:
      diags_.error(loc, std::string("unexpected character '") + c + "'");
      tokens.push_back(makeToken(TokenKind::Invalid, sliceFrom(pos_ - 1), loc));
      break;
    }
  }
  tokens.push_back(makeToken(TokenKind::Eof, "", here()));
  return tokens;
}

} // namespace mira::frontend
