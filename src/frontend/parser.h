// Recursive-descent parser for MiniC producing the source AST.
//
// Pragma tokens ('#pragma @Annotation {...}') are attached as annotations
// to the statement that follows them, mirroring the paper's Listing 6
// placement rules. Errors are reported through DiagnosticEngine and the
// parser recovers at statement boundaries, so a malformed input yields
// diagnostics rather than a crash.
#pragma once

#include <memory>
#include <vector>

#include "frontend/ast.h"
#include "frontend/lexer.h"
#include "support/diagnostics.h"

namespace mira::frontend {

class Parser {
public:
  Parser(std::vector<Token> tokens, DiagnosticEngine &diags);

  /// Parse a whole translation unit. Returns a (possibly partial) unit;
  /// check diags.hasErrors() for success.
  std::unique_ptr<TranslationUnit> parseTranslationUnit(std::string fileName);

  /// Convenience: lex + parse in one step. The unit owns copies of every
  /// name it keeps, so `source` need only outlive the call.
  static std::unique_ptr<TranslationUnit>
  parse(const std::string &source, const std::string &fileName,
        DiagnosticEngine &diags);

private:
  // token stream helpers
  const Token &peek(std::size_t offset = 0) const;
  const Token &current() const { return peek(0); }
  const Token &advance();
  bool check(TokenKind kind) const { return current().kind == kind; }
  bool match(TokenKind kind);
  const Token &expect(TokenKind kind, const char *context);
  bool atEnd() const { return current().kind == TokenKind::Eof; }
  void synchronizeToStatement();

  // grammar productions
  ArenaPtr<ClassDecl> parseClass();
  ArenaPtr<FunctionDecl> parseFunction(Type returnType, std::string name,
                                       std::string className);
  bool parseTypeSpec(Type &out); // returns false if current token ≠ type
  bool looksLikeType() const;
  ArenaList<ParamDecl> parseParams();

  StmtPtr parseStatement();
  StmtPtr parseCompound();
  StmtPtr parseDeclStatement();
  StmtPtr parseFor();
  StmtPtr parseWhile();
  StmtPtr parseIf();
  StmtPtr parseReturn();
  std::optional<Annotation> parsePragma();

  ExprPtr parseExpression();
  ExprPtr parseAssignment();
  ExprPtr parseLogicalOr();
  ExprPtr parseLogicalAnd();
  ExprPtr parseEquality();
  ExprPtr parseRelational();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  SourceRange rangeFrom(SourceLocation begin) const;
  /// The arena of the unit being parsed.
  AstArena &arena() { return *arena_; }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  DiagnosticEngine &diags_;
  SourceLocation lastEnd_;
  AstArena *arena_ = nullptr;
  // Stacks the lists under construction share: a production pushes its
  // items above the mark it took and moves exactly those into the arena
  // (AstArena::adopt), so nested lists of one kind use one vector.
  std::vector<ExprPtr> exprs_;
  std::vector<StmtPtr> stmts_;
  std::vector<ParamDecl> params_;
  std::vector<FieldDecl> fields_;
  std::vector<ArenaPtr<FunctionDecl>> functions_;
  std::vector<ArenaPtr<ClassDecl>> classes_;
};

} // namespace mira::frontend
