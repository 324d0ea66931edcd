#include "frontend/parser.h"

#include "support/string_utils.h"

namespace mira::frontend {

Parser::Parser(std::vector<Token> tokens, DiagnosticEngine &diags)
    : tokens_(std::move(tokens)), diags_(diags) {}

const Token &Parser::peek(std::size_t offset) const {
  std::size_t i = pos_ + offset;
  if (i >= tokens_.size())
    i = tokens_.size() - 1; // Eof
  return tokens_[i];
}

const Token &Parser::advance() {
  const Token &t = current();
  if (pos_ + 1 < tokens_.size())
    ++pos_;
  lastEnd_ = t.location;
  return t;
}

bool Parser::match(TokenKind kind) {
  if (!check(kind))
    return false;
  advance();
  return true;
}

const Token &Parser::expect(TokenKind kind, const char *context) {
  if (check(kind))
    return advance();
  diags_.error(current().location,
               std::string("expected ") + toString(kind) + " " + context +
                   ", found " + current().str());
  return current();
}

SourceRange Parser::rangeFrom(SourceLocation begin) const {
  return SourceRange{begin, lastEnd_};
}

void Parser::synchronizeToStatement() {
  while (!atEnd()) {
    if (match(TokenKind::Semicolon))
      return;
    if (check(TokenKind::RBrace) || check(TokenKind::KwFor) ||
        check(TokenKind::KwWhile) || check(TokenKind::KwIf) ||
        check(TokenKind::KwReturn))
      return;
    advance();
  }
}

bool Parser::looksLikeType() const {
  switch (current().kind) {
  case TokenKind::KwInt:
  case TokenKind::KwLong:
  case TokenKind::KwFloat:
  case TokenKind::KwDouble:
  case TokenKind::KwBool:
  case TokenKind::KwVoid:
  case TokenKind::KwConst:
    return true;
  case TokenKind::Identifier:
    // 'A a;' pattern: identifier followed by identifier is a class-typed
    // declaration.
    return peek(1).kind == TokenKind::Identifier;
  default:
    return false;
  }
}

bool Parser::parseTypeSpec(Type &out) {
  match(TokenKind::KwConst); // 'const' accepted and ignored
  switch (current().kind) {
  case TokenKind::KwInt:
    out.scalar = ScalarType::Int;
    break;
  case TokenKind::KwLong:
    out.scalar = ScalarType::Long;
    break;
  case TokenKind::KwFloat:
    out.scalar = ScalarType::Float;
    break;
  case TokenKind::KwDouble:
    out.scalar = ScalarType::Double;
    break;
  case TokenKind::KwBool:
    out.scalar = ScalarType::Bool;
    break;
  case TokenKind::KwVoid:
    out.scalar = ScalarType::Void;
    break;
  case TokenKind::Identifier:
    out.scalar = ScalarType::Class;
    out.className = current().text;
    break;
  default:
    return false;
  }
  advance();
  match(TokenKind::KwConst);
  out.pointerDepth = 0;
  while (match(TokenKind::Star))
    ++out.pointerDepth;
  return true;
}

std::unique_ptr<TranslationUnit>
Parser::parseTranslationUnit(std::string fileName) {
  auto unit = std::make_unique<TranslationUnit>();
  unit->fileName = std::move(fileName);
  arena_ = &unit->arena;
  while (!atEnd()) {
    if (check(TokenKind::Pragma)) {
      diags_.warning(current().location,
                     "pragma at file scope ignored (annotations attach to "
                     "statements)");
      advance();
      continue;
    }
    if (check(TokenKind::KwClass)) {
      if (auto c = parseClass())
        classes_.push_back(std::move(c));
      continue;
    }
    Type type;
    SourceLocation begin = current().location;
    if (!parseTypeSpec(type)) {
      diags_.error(current().location,
                   "expected declaration, found " + current().str());
      advance();
      continue;
    }
    const Token &nameTok =
        expect(TokenKind::Identifier, "in function declaration");
    if (auto f = parseFunction(type, std::string(nameTok.text), "")) {
      f->range.begin = begin;
      functions_.push_back(std::move(f));
    }
  }
  unit->classes = arena().adopt(classes_, 0);
  unit->functions = arena().adopt(functions_, 0);
  return unit;
}

ArenaPtr<ClassDecl> Parser::parseClass() {
  SourceLocation begin = current().location;
  expect(TokenKind::KwClass, "at class declaration");
  const Token &nameTok = expect(TokenKind::Identifier, "after 'class'");
  auto cls = arena().make<ClassDecl>();
  cls->name = nameTok.text;
  const std::size_t fieldMark = fields_.size();
  const std::size_t methodMark = functions_.size();
  expect(TokenKind::LBrace, "to open class body");
  while (!check(TokenKind::RBrace) && !atEnd()) {
    if (match(TokenKind::KwPublic)) {
      expect(TokenKind::Colon, "after 'public'");
      continue;
    }
    Type type;
    if (!parseTypeSpec(type)) {
      diags_.error(current().location,
                   "expected member declaration, found " + current().str());
      advance();
      continue;
    }
    std::string memberName;
    if (check(TokenKind::KwOperator)) {
      advance();
      expect(TokenKind::LParen, "after 'operator'");
      expect(TokenKind::RParen, "to complete 'operator()'");
      memberName = "operator()";
    } else {
      memberName = expect(TokenKind::Identifier, "in member declaration").text;
    }
    if (check(TokenKind::LParen)) {
      if (auto m = parseFunction(type, memberName, cls->name))
        functions_.push_back(std::move(m));
    } else {
      // field (no array fields in MiniC; use pointers for buffers)
      FieldDecl field;
      field.type = type;
      field.name = memberName;
      field.location = lastEnd_;
      fields_.push_back(std::move(field));
      expect(TokenKind::Semicolon, "after field declaration");
    }
  }
  expect(TokenKind::RBrace, "to close class body");
  expect(TokenKind::Semicolon, "after class declaration");
  cls->fields = arena().adopt(fields_, fieldMark);
  cls->methods = arena().adopt(functions_, methodMark);
  cls->range = rangeFrom(begin);
  return cls;
}

ArenaList<ParamDecl> Parser::parseParams() {
  const std::size_t mark = params_.size();
  expect(TokenKind::LParen, "to open parameter list");
  if (!check(TokenKind::RParen)) {
    do {
      ParamDecl p;
      p.location = current().location;
      if (!parseTypeSpec(p.type)) {
        diags_.error(current().location,
                     "expected parameter type, found " + current().str());
        break;
      }
      p.name = expect(TokenKind::Identifier, "in parameter").text;
      params_.push_back(std::move(p));
    } while (match(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "to close parameter list");
  return arena().adopt(params_, mark);
}

ArenaPtr<FunctionDecl> Parser::parseFunction(Type returnType,
                                             std::string name,
                                             std::string className) {
  auto fn = arena().make<FunctionDecl>();
  fn->returnType = returnType;
  fn->name = std::move(name);
  fn->className = std::move(className);
  SourceLocation begin = current().location;
  fn->params = parseParams();
  if (!check(TokenKind::LBrace)) {
    diags_.error(current().location, "expected function body");
    return nullptr;
  }
  fn->bodyStmt = parseCompound();
  fn->range = rangeFrom(begin);
  return fn;
}

std::optional<Annotation> Parser::parsePragma() {
  // Pragma text: "pragma @Annotation {key:value, key:value}"
  const Token &tok = advance();
  const std::string text = tok.spelling();
  std::string_view body = trim(text);
  if (!startsWith(body, "pragma"))
    return std::nullopt;
  body = trim(body.substr(6));
  // '@Annotation {..}' carries model hints (paper Sec. III-B4);
  // '@Simulate {..}' carries simulator hints (ff/hoist), stored with a
  // 'sim_' key prefix so the two namespaces cannot collide.
  std::string keyPrefix;
  if (startsWith(body, "@Annotation")) {
    body = trim(body.substr(11));
  } else if (startsWith(body, "@Simulate")) {
    keyPrefix = "sim_";
    body = trim(body.substr(9));
  } else {
    diags_.warning(tok.location, "unrecognized pragma ignored: " + text);
    return std::nullopt;
  }
  Annotation ann;
  ann.location = tok.location;
  if (body.empty() || body.front() != '{' || body.back() != '}') {
    diags_.error(tok.location,
                 "malformed @Annotation payload (expected {key:value,...}): " +
                     text);
    return std::nullopt;
  }
  body = body.substr(1, body.size() - 2);
  for (const std::string &pair : splitString(body, ',')) {
    std::string_view kv = trim(pair);
    if (kv.empty())
      continue;
    std::size_t colon = kv.find(':');
    if (colon == std::string_view::npos) {
      diags_.error(tok.location,
                   "annotation entry missing ':': " + std::string(kv));
      continue;
    }
    std::string key{trim(kv.substr(0, colon))};
    std::string value{trim(kv.substr(colon + 1))};
    if (key.empty() || value.empty()) {
      diags_.error(tok.location,
                   "annotation entry has empty key or value: " +
                       std::string(kv));
      continue;
    }
    ann.entries[keyPrefix + key] = value;
  }
  return ann;
}

StmtPtr Parser::parseStatement() {
  std::optional<Annotation> annotation;
  while (check(TokenKind::Pragma)) {
    auto ann = parsePragma();
    if (ann) {
      if (annotation)
        diags_.warning(ann->location,
                       "multiple annotations on one statement; merging");
      if (!annotation)
        annotation = ann;
      else
        for (const auto &[k, v] : ann->entries)
          annotation->entries[k] = v;
    }
  }

  StmtPtr stmt;
  switch (current().kind) {
  case TokenKind::LBrace:
    stmt = parseCompound();
    break;
  case TokenKind::KwFor:
    stmt = parseFor();
    break;
  case TokenKind::KwWhile:
    stmt = parseWhile();
    break;
  case TokenKind::KwIf:
    stmt = parseIf();
    break;
  case TokenKind::KwReturn:
    stmt = parseReturn();
    break;
  case TokenKind::Semicolon: {
    SourceLocation loc = current().location;
    advance();
    stmt = Statement::empty(arena(), {loc, loc});
    break;
  }
  default:
    if (looksLikeType()) {
      stmt = parseDeclStatement();
    } else {
      SourceLocation begin = current().location;
      auto s = arena().make<Statement>(StmtKind::ExprStmt);
      s->expr = parseExpression();
      expect(TokenKind::Semicolon, "after expression statement");
      s->range = rangeFrom(begin);
      stmt = std::move(s);
    }
    break;
  }
  if (stmt && annotation)
    stmt->annotation = std::move(annotation);
  return stmt;
}

StmtPtr Parser::parseCompound() {
  SourceLocation begin = current().location;
  expect(TokenKind::LBrace, "to open block");
  const std::size_t mark = stmts_.size();
  while (!check(TokenKind::RBrace) && !atEnd()) {
    std::size_t before = pos_;
    if (auto s = parseStatement())
      stmts_.push_back(std::move(s));
    if (pos_ == before) { // no progress: recover
      synchronizeToStatement();
      if (pos_ == before)
        advance();
    }
  }
  expect(TokenKind::RBrace, "to close block");
  return Statement::compound(arena(), stmts_, mark, rangeFrom(begin));
}

StmtPtr Parser::parseDeclStatement() {
  SourceLocation begin = current().location;
  auto s = arena().make<Statement>(StmtKind::Decl);
  if (!parseTypeSpec(s->declType)) {
    diags_.error(current().location, "expected type in declaration");
    synchronizeToStatement();
    return Statement::empty(arena(), rangeFrom(begin));
  }
  s->declName = expect(TokenKind::Identifier, "in declaration").text;
  const std::size_t mark = exprs_.size();
  while (match(TokenKind::LBracket)) {
    ExprPtr dim = parseExpression();
    exprs_.push_back(std::move(dim));
    expect(TokenKind::RBracket, "to close array dimension");
  }
  s->arrayDims = arena().adopt(exprs_, mark);
  if (match(TokenKind::Assign))
    s->declInit = parseExpression();
  expect(TokenKind::Semicolon, "after declaration");
  s->range = rangeFrom(begin);
  return s;
}

StmtPtr Parser::parseFor() {
  SourceLocation begin = current().location;
  auto s = arena().make<Statement>(StmtKind::For);
  expect(TokenKind::KwFor, "at for loop");
  expect(TokenKind::LParen, "after 'for'");

  // init: declaration, expression, or empty
  if (check(TokenKind::Semicolon)) {
    advance();
    s->forInit = Statement::empty(arena(), {begin, begin});
  } else if (looksLikeType()) {
    s->forInit = parseDeclStatement(); // consumes ';'
  } else {
    SourceLocation initBegin = current().location;
    auto init = arena().make<Statement>(StmtKind::ExprStmt);
    init->expr = parseExpression();
    expect(TokenKind::Semicolon, "after for-init");
    init->range = rangeFrom(initBegin);
    s->forInit = std::move(init);
  }

  if (!check(TokenKind::Semicolon))
    s->forCond = parseExpression();
  expect(TokenKind::Semicolon, "after for-condition");
  if (!check(TokenKind::RParen))
    s->forInc = parseExpression();
  expect(TokenKind::RParen, "to close for header");
  s->loopBody = parseStatement();
  s->range = rangeFrom(begin);
  return s;
}

StmtPtr Parser::parseWhile() {
  SourceLocation begin = current().location;
  auto s = arena().make<Statement>(StmtKind::While);
  expect(TokenKind::KwWhile, "at while loop");
  expect(TokenKind::LParen, "after 'while'");
  s->forCond = parseExpression();
  expect(TokenKind::RParen, "to close while condition");
  s->loopBody = parseStatement();
  s->range = rangeFrom(begin);
  return s;
}

StmtPtr Parser::parseIf() {
  SourceLocation begin = current().location;
  auto s = arena().make<Statement>(StmtKind::If);
  expect(TokenKind::KwIf, "at if statement");
  expect(TokenKind::LParen, "after 'if'");
  s->expr = parseExpression();
  expect(TokenKind::RParen, "to close if condition");
  s->thenBranch = parseStatement();
  if (match(TokenKind::KwElse))
    s->elseBranch = parseStatement();
  s->range = rangeFrom(begin);
  return s;
}

StmtPtr Parser::parseReturn() {
  SourceLocation begin = current().location;
  auto s = arena().make<Statement>(StmtKind::Return);
  expect(TokenKind::KwReturn, "at return");
  if (!check(TokenKind::Semicolon))
    s->expr = parseExpression();
  expect(TokenKind::Semicolon, "after return");
  s->range = rangeFrom(begin);
  return s;
}

// ------------------------------------------------------------- expressions

ExprPtr Parser::parseExpression() { return parseAssignment(); }

ExprPtr Parser::parseAssignment() {
  SourceLocation begin = current().location;
  ExprPtr lhs = parseLogicalOr();
  AssignOp op;
  switch (current().kind) {
  case TokenKind::Assign:
    op = AssignOp::Assign;
    break;
  case TokenKind::PlusAssign:
    op = AssignOp::AddAssign;
    break;
  case TokenKind::MinusAssign:
    op = AssignOp::SubAssign;
    break;
  case TokenKind::StarAssign:
    op = AssignOp::MulAssign;
    break;
  case TokenKind::SlashAssign:
    op = AssignOp::DivAssign;
    break;
  default:
    return lhs;
  }
  advance();
  ExprPtr rhs = parseAssignment(); // right-associative
  return Expression::assign(arena(), op, std::move(lhs), std::move(rhs),
                            rangeFrom(begin));
}

ExprPtr Parser::parseLogicalOr() {
  SourceLocation begin = current().location;
  ExprPtr lhs = parseLogicalAnd();
  while (match(TokenKind::PipePipe))
    lhs = Expression::binary(arena(), BinaryOp::LOr, std::move(lhs),
                             parseLogicalAnd(), rangeFrom(begin));
  return lhs;
}

ExprPtr Parser::parseLogicalAnd() {
  SourceLocation begin = current().location;
  ExprPtr lhs = parseEquality();
  while (match(TokenKind::AmpAmp))
    lhs = Expression::binary(arena(), BinaryOp::LAnd, std::move(lhs),
                             parseEquality(), rangeFrom(begin));
  return lhs;
}

ExprPtr Parser::parseEquality() {
  SourceLocation begin = current().location;
  ExprPtr lhs = parseRelational();
  while (true) {
    BinaryOp op;
    if (check(TokenKind::EqualEqual))
      op = BinaryOp::Eq;
    else if (check(TokenKind::NotEqual))
      op = BinaryOp::Ne;
    else
      break;
    advance();
    lhs = Expression::binary(arena(), op, std::move(lhs), parseRelational(),
                             rangeFrom(begin));
  }
  return lhs;
}

ExprPtr Parser::parseRelational() {
  SourceLocation begin = current().location;
  ExprPtr lhs = parseAdditive();
  while (true) {
    BinaryOp op;
    if (check(TokenKind::Less))
      op = BinaryOp::Lt;
    else if (check(TokenKind::LessEqual))
      op = BinaryOp::Le;
    else if (check(TokenKind::Greater))
      op = BinaryOp::Gt;
    else if (check(TokenKind::GreaterEqual))
      op = BinaryOp::Ge;
    else
      break;
    advance();
    lhs = Expression::binary(arena(), op, std::move(lhs), parseAdditive(),
                             rangeFrom(begin));
  }
  return lhs;
}

ExprPtr Parser::parseAdditive() {
  SourceLocation begin = current().location;
  ExprPtr lhs = parseMultiplicative();
  while (true) {
    BinaryOp op;
    if (check(TokenKind::Plus))
      op = BinaryOp::Add;
    else if (check(TokenKind::Minus))
      op = BinaryOp::Sub;
    else
      break;
    advance();
    lhs = Expression::binary(arena(), op, std::move(lhs), parseMultiplicative(),
                             rangeFrom(begin));
  }
  return lhs;
}

ExprPtr Parser::parseMultiplicative() {
  SourceLocation begin = current().location;
  ExprPtr lhs = parseUnary();
  while (true) {
    BinaryOp op;
    if (check(TokenKind::Star))
      op = BinaryOp::Mul;
    else if (check(TokenKind::Slash))
      op = BinaryOp::Div;
    else if (check(TokenKind::Percent))
      op = BinaryOp::Mod;
    else
      break;
    advance();
    lhs = Expression::binary(arena(), op, std::move(lhs), parseUnary(),
                             rangeFrom(begin));
  }
  return lhs;
}

ExprPtr Parser::parseUnary() {
  SourceLocation begin = current().location;
  if (match(TokenKind::Minus))
    return Expression::unary(arena(), UnaryOp::Neg, parseUnary(),
                             rangeFrom(begin));
  if (match(TokenKind::Not))
    return Expression::unary(arena(), UnaryOp::Not, parseUnary(),
                             rangeFrom(begin));
  if (match(TokenKind::PlusPlus))
    return Expression::unary(arena(), UnaryOp::PreInc, parseUnary(),
                             rangeFrom(begin));
  if (match(TokenKind::MinusMinus))
    return Expression::unary(arena(), UnaryOp::PreDec, parseUnary(),
                             rangeFrom(begin));
  return parsePostfix();
}

ExprPtr Parser::parsePostfix() {
  SourceLocation begin = current().location;
  ExprPtr expr = parsePrimary();
  while (true) {
    if (match(TokenKind::LBracket)) {
      ExprPtr idx = parseExpression();
      expect(TokenKind::RBracket, "to close subscript");
      expr = Expression::index(arena(), std::move(expr), std::move(idx),
                               rangeFrom(begin));
    } else if (match(TokenKind::LParen)) {
      // call on the expression so far: either a free-function call (VarRef
      // callee), a method call (Member callee), or operator() on an
      // object (anything else — sema resolves).
      const std::size_t mark = exprs_.size();
      if (!check(TokenKind::RParen)) {
        do {
          ExprPtr arg = parseExpression();
          exprs_.push_back(std::move(arg));
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "to close call");
      if (expr->kind == ExprKind::VarRef) {
        std::string callee = expr->name;
        expr = Expression::call(arena(), callee, nullptr, exprs_, mark,
                                rangeFrom(begin));
      } else if (expr->kind == ExprKind::Member) {
        std::string callee = expr->name;
        ExprPtr receiver = std::move(expr->children[0]);
        expr = Expression::call(arena(), callee, std::move(receiver), exprs_,
                                mark, rangeFrom(begin));
      } else {
        // operator() call on an arbitrary object expression
        expr = Expression::call(arena(), "operator()", std::move(expr),
                                exprs_, mark, rangeFrom(begin));
      }
    } else if (check(TokenKind::Dot) || check(TokenKind::Arrow)) {
      advance();
      std::string field;
      if (check(TokenKind::KwOperator)) {
        advance();
        expect(TokenKind::LParen, "after 'operator'");
        expect(TokenKind::RParen, "to complete 'operator()'");
        field = "operator()";
      } else {
        field = expect(TokenKind::Identifier, "after '.'").text;
      }
      expr = Expression::member(arena(), std::move(expr), field,
                                rangeFrom(begin));
    } else if (match(TokenKind::PlusPlus)) {
      expr = Expression::unary(arena(), UnaryOp::PostInc, std::move(expr),
                               rangeFrom(begin));
    } else if (match(TokenKind::MinusMinus)) {
      expr = Expression::unary(arena(), UnaryOp::PostDec, std::move(expr),
                               rangeFrom(begin));
    } else {
      break;
    }
  }
  return expr;
}

ExprPtr Parser::parsePrimary() {
  SourceLocation begin = current().location;
  switch (current().kind) {
  case TokenKind::IntLiteral: {
    const Token &t = advance();
    return Expression::intLiteral(arena(), t.intValue, rangeFrom(begin));
  }
  case TokenKind::FloatLiteral: {
    const Token &t = advance();
    return Expression::floatLiteral(arena(), t.floatValue, rangeFrom(begin));
  }
  case TokenKind::KwTrue:
    advance();
    return Expression::boolLiteral(arena(), true, rangeFrom(begin));
  case TokenKind::KwFalse:
    advance();
    return Expression::boolLiteral(arena(), false, rangeFrom(begin));
  case TokenKind::Identifier: {
    const Token &t = advance();
    return Expression::varRef(arena(), std::string(t.text), rangeFrom(begin));
  }
  case TokenKind::LParen: {
    advance();
    ExprPtr inner = parseExpression();
    expect(TokenKind::RParen, "to close parenthesized expression");
    return inner;
  }
  default:
    diags_.error(current().location,
                 "expected expression, found " + current().str());
    advance();
    return Expression::intLiteral(arena(), 0, rangeFrom(begin));
  }
}

std::unique_ptr<TranslationUnit>
Parser::parse(const std::string &source, const std::string &fileName,
              DiagnosticEngine &diags) {
  Lexer lexer(source, diags);
  Parser parser(lexer.tokenize(), diags);
  return parser.parseTranslationUnit(fileName);
}

} // namespace mira::frontend
