#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "frontend/lexer.h"
#include "frontend/parser.h"

namespace mira::frontend {
namespace {

/// Tokens view their source, so every caller passes a string literal or
/// a string that outlives the tokens.
std::vector<Token> lex(std::string_view src, DiagnosticEngine &diags) {
  Lexer lexer(src, diags);
  return lexer.tokenize();
}

std::unique_ptr<TranslationUnit> parseOk(const std::string &src) {
  DiagnosticEngine diags;
  auto unit = Parser::parse(src, "test.mc", diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.str();
  return unit;
}

// ------------------------------------------------------------------- lexer

TEST(Lexer, BasicTokens) {
  DiagnosticEngine diags;
  auto toks = lex("int x = 42;", diags);
  ASSERT_EQ(toks.size(), 6u); // int x = 42 ; EOF
  EXPECT_EQ(toks[0].kind, TokenKind::KwInt);
  EXPECT_EQ(toks[1].kind, TokenKind::Identifier);
  EXPECT_EQ(toks[1].text, "x");
  EXPECT_EQ(toks[2].kind, TokenKind::Assign);
  EXPECT_EQ(toks[3].kind, TokenKind::IntLiteral);
  EXPECT_EQ(toks[3].intValue, 42);
  EXPECT_EQ(toks[4].kind, TokenKind::Semicolon);
  EXPECT_EQ(toks[5].kind, TokenKind::Eof);
}

TEST(Lexer, LineAndColumnTracking) {
  DiagnosticEngine diags;
  auto toks = lex("int\n  x;", diags);
  EXPECT_EQ(toks[0].location.line, 1u);
  EXPECT_EQ(toks[1].location.line, 2u);
  EXPECT_EQ(toks[1].location.column, 3u);
}

TEST(Lexer, FloatLiterals) {
  DiagnosticEngine diags;
  auto toks = lex("3.5 1e6 2.5e-3 7", diags);
  EXPECT_EQ(toks[0].kind, TokenKind::FloatLiteral);
  EXPECT_DOUBLE_EQ(toks[0].floatValue, 3.5);
  EXPECT_EQ(toks[1].kind, TokenKind::FloatLiteral);
  EXPECT_DOUBLE_EQ(toks[1].floatValue, 1e6);
  EXPECT_EQ(toks[2].kind, TokenKind::FloatLiteral);
  EXPECT_DOUBLE_EQ(toks[2].floatValue, 2.5e-3);
  EXPECT_EQ(toks[3].kind, TokenKind::IntLiteral);
}

TEST(Lexer, CompoundOperators) {
  DiagnosticEngine diags;
  auto toks = lex("++ -- += -= *= /= <= >= == != && || ->", diags);
  TokenKind expected[] = {
      TokenKind::PlusPlus,   TokenKind::MinusMinus,   TokenKind::PlusAssign,
      TokenKind::MinusAssign, TokenKind::StarAssign,  TokenKind::SlashAssign,
      TokenKind::LessEqual,  TokenKind::GreaterEqual, TokenKind::EqualEqual,
      TokenKind::NotEqual,   TokenKind::AmpAmp,       TokenKind::PipePipe,
      TokenKind::Arrow};
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_EQ(toks[i].kind, expected[i]) << i;
}

TEST(Lexer, Comments) {
  DiagnosticEngine diags;
  auto toks = lex("a // line comment\n/* block\ncomment */ b", diags);
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[1].location.line, 3u);
}

TEST(Lexer, UnterminatedBlockCommentDiagnosed) {
  DiagnosticEngine diags;
  lex("a /* never closed", diags);
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_TRUE(diags.containsMessage("unterminated"));
}

TEST(Lexer, PragmaCapturedAsOneToken) {
  DiagnosticEngine diags;
  auto toks = lex("#pragma @Annotation {skip:yes}\nx;", diags);
  EXPECT_EQ(toks[0].kind, TokenKind::Pragma);
  EXPECT_NE(toks[0].text.find("@Annotation"), std::string::npos);
  EXPECT_EQ(toks[1].kind, TokenKind::Identifier);
}

TEST(Lexer, PragmaBackslashContinuation) {
  DiagnosticEngine diags;
  auto toks = lex("#pragma @Annotation \\\n{lp_init:x,lp_cond:y}\nz;", diags);
  EXPECT_EQ(toks[0].kind, TokenKind::Pragma);
  EXPECT_NE(toks[0].text.find("lp_cond:y"), std::string::npos);
  // The token views the source, continuation included; its spelling is
  // the directive with the continuation spliced out.
  EXPECT_EQ(toks[0].text, "pragma @Annotation \\\n{lp_init:x,lp_cond:y}");
  EXPECT_EQ(toks[0].spelling(), "pragma @Annotation {lp_init:x,lp_cond:y}");
  EXPECT_EQ(toks[1].location.line, 3u);
}

TEST(Lexer, UnexpectedCharacterDiagnosed) {
  DiagnosticEngine diags;
  lex("a $ b", diags);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, EveryKeywordSpellingMapsToItsKind) {
  const std::pair<const char *, TokenKind> keywords[] = {
      {"int", TokenKind::KwInt},         {"long", TokenKind::KwLong},
      {"float", TokenKind::KwFloat},     {"double", TokenKind::KwDouble},
      {"bool", TokenKind::KwBool},       {"void", TokenKind::KwVoid},
      {"class", TokenKind::KwClass},     {"public", TokenKind::KwPublic},
      {"for", TokenKind::KwFor},         {"while", TokenKind::KwWhile},
      {"if", TokenKind::KwIf},           {"else", TokenKind::KwElse},
      {"return", TokenKind::KwReturn},   {"true", TokenKind::KwTrue},
      {"false", TokenKind::KwFalse},     {"const", TokenKind::KwConst},
      {"operator", TokenKind::KwOperator},
  };
  for (const auto &[spelling, kind] : keywords) {
    DiagnosticEngine diags;
    auto toks = lex(spelling, diags);
    ASSERT_EQ(toks.size(), 2u) << spelling;
    EXPECT_EQ(toks[0].kind, kind) << spelling;
    EXPECT_EQ(toks[0].text, spelling);
  }
  // Near misses: a prefix, an extension, another case, a suffix.
  for (const char *spelling :
       {"fo", "form", "Int", "operator_", "i", "iff", "Return", "doubles",
        "operato", "_if", "whilE", "cons", "publics"}) {
    DiagnosticEngine diags;
    auto toks = lex(spelling, diags);
    ASSERT_EQ(toks.size(), 2u) << spelling;
    EXPECT_EQ(toks[0].kind, TokenKind::Identifier) << spelling;
    EXPECT_EQ(toks[0].text, spelling);
  }
}

TEST(Lexer, NumbersEndWhereTheirViewEnds) {
  // The lexer may be handed part of a buffer: a number that ends the view
  // must not run on into the bytes after it.
  static const char buffer[] = "x = 12345 2.5e-37";
  DiagnosticEngine diags;
  auto toks = lex(std::string_view(buffer, 6), diags); // "x = 12"
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[2].text, "12");
  EXPECT_EQ(toks[2].intValue, 12);
  toks = lex(std::string_view(buffer + 10, 6), diags); // "2.5e-3"
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_DOUBLE_EQ(toks[0].floatValue, 2.5e-3);
  EXPECT_FALSE(diags.hasErrors()) << diags.str();
}

TEST(Lexer, OutOfRangeIntegerDiagnosticTextIsExact) {
  DiagnosticEngine diags;
  lex("x = 99999999999999999999;", diags);
  ASSERT_EQ(diags.all().size(), 1u);
  EXPECT_EQ(diags.all()[0].message,
            "integer literal out of range: 99999999999999999999");
  // A literal longer than any fixed parse buffer quotes in full too.
  const std::string digits(80, '9');
  DiagnosticEngine longDiags;
  lex(digits, longDiags);
  ASSERT_EQ(longDiags.all().size(), 1u);
  EXPECT_EQ(longDiags.all()[0].message,
            "integer literal out of range: " + digits);
}

// ------------------------------------------------------------------ parser

TEST(Parser, SimpleFunction) {
  auto unit = parseOk("int add(int a, int b) { return a + b; }");
  ASSERT_EQ(unit->functions.size(), 1u);
  const FunctionDecl &fn = *unit->functions[0];
  EXPECT_EQ(fn.name, "add");
  EXPECT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.returnType.scalar, ScalarType::Int);
  ASSERT_EQ(fn.bodyStmt->body.size(), 1u);
  EXPECT_EQ(fn.bodyStmt->body[0]->kind, StmtKind::Return);
}

TEST(Parser, PointerParams) {
  auto unit = parseOk("void f(double* a, double** b) { }");
  const FunctionDecl &fn = *unit->functions[0];
  EXPECT_EQ(fn.params[0].type.pointerDepth, 1);
  EXPECT_EQ(fn.params[1].type.pointerDepth, 2);
  EXPECT_EQ(fn.params[0].type.scalar, ScalarType::Double);
}

TEST(Parser, ForLoopStructure) {
  auto unit = parseOk(
      "void f(int n) { for (int i = 0; i < n; i++) { n = n; } }");
  const Statement &body = *unit->functions[0]->bodyStmt;
  ASSERT_EQ(body.body.size(), 1u);
  const Statement &loop = *body.body[0];
  EXPECT_EQ(loop.kind, StmtKind::For);
  ASSERT_NE(loop.forInit, nullptr);
  EXPECT_EQ(loop.forInit->kind, StmtKind::Decl);
  EXPECT_EQ(loop.forInit->declName, "i");
  ASSERT_NE(loop.forCond, nullptr);
  EXPECT_EQ(loop.forCond->kind, ExprKind::Binary);
  ASSERT_NE(loop.forInc, nullptr);
  ASSERT_NE(loop.loopBody, nullptr);
}

TEST(Parser, NestedLoopPaperListing2) {
  auto unit = parseOk("void f() {\n"
                      "  for (int i = 1; i <= 4; i++)\n"
                      "    for (int j = i + 1; j <= 6; j++) {\n"
                      "      int s = 0;\n"
                      "    }\n"
                      "}");
  const Statement &outer = *unit->functions[0]->bodyStmt->body[0];
  EXPECT_EQ(outer.kind, StmtKind::For);
  EXPECT_EQ(outer.loopBody->kind, StmtKind::For);
}

TEST(Parser, ArrayDeclaration) {
  auto unit = parseOk("void f(int n) { double a[n]; double b[10]; }");
  const Statement &body = *unit->functions[0]->bodyStmt;
  EXPECT_EQ(body.body[0]->kind, StmtKind::Decl);
  ASSERT_EQ(body.body[0]->arrayDims.size(), 1u);
  EXPECT_EQ(body.body[0]->arrayDims[0]->kind, ExprKind::VarRef);
  EXPECT_EQ(body.body[1]->arrayDims[0]->kind, ExprKind::IntLiteral);
}

TEST(Parser, OperatorPrecedence) {
  auto unit = parseOk("int f() { return 1 + 2 * 3; }");
  const Expression &ret = *unit->functions[0]->bodyStmt->body[0]->expr;
  // (1 + (2 * 3))
  EXPECT_EQ(ret.binaryOp, BinaryOp::Add);
  EXPECT_EQ(ret.children[1]->binaryOp, BinaryOp::Mul);
}

TEST(Parser, AssignmentIsRightAssociative) {
  auto unit = parseOk("void f(int a, int b) { a = b = 3; }");
  const Expression &e = *unit->functions[0]->bodyStmt->body[0]->expr;
  EXPECT_EQ(e.kind, ExprKind::Assign);
  EXPECT_EQ(e.children[1]->kind, ExprKind::Assign);
}

TEST(Parser, ClassWithMethodAndFields) {
  auto unit = parseOk("class A {\n"
                      "public:\n"
                      "  int n;\n"
                      "  double* data;\n"
                      "  void foo(double* x, double* y) { n = n; }\n"
                      "};\n");
  ASSERT_EQ(unit->classes.size(), 1u);
  const ClassDecl &cls = *unit->classes[0];
  EXPECT_EQ(cls.name, "A");
  ASSERT_EQ(cls.fields.size(), 2u);
  EXPECT_EQ(cls.fields[1].type.pointerDepth, 1);
  ASSERT_EQ(cls.methods.size(), 1u);
  EXPECT_EQ(cls.methods[0]->qualifiedName(), "A::foo");
  EXPECT_EQ(cls.methods[0]->modelName(), "A_foo_2");
}

TEST(Parser, OperatorCallMethod) {
  auto unit = parseOk("class M {\n"
                      "public:\n"
                      "  void operator()(int i) { i = i; }\n"
                      "};\n"
                      "void g() { M m; m(3); }\n");
  ASSERT_EQ(unit->classes[0]->methods.size(), 1u);
  EXPECT_EQ(unit->classes[0]->methods[0]->name, "operator()");
  EXPECT_EQ(unit->classes[0]->methods[0]->modelName(), "M_operator_call_1");
}

TEST(Parser, MethodCallSyntax) {
  auto unit = parseOk("class A { public: void foo(int i) { i = i; } };\n"
                      "void g() { A a; a.foo(1); }\n");
  const Statement &body = *unit->functions[0]->bodyStmt;
  const Expression &call = *body.body[1]->expr;
  EXPECT_EQ(call.kind, ExprKind::Call);
  EXPECT_EQ(call.name, "foo");
  ASSERT_NE(call.receiver, nullptr);
  EXPECT_EQ(call.receiver->kind, ExprKind::VarRef);
}

TEST(Parser, AnnotationAttachesToNextStatement) {
  auto unit = parseOk("void f(int n) {\n"
                      "  #pragma @Annotation {lp_iters:100}\n"
                      "  for (int i = 0; i < n; i++) { n = n; }\n"
                      "}");
  const Statement &loop = *unit->functions[0]->bodyStmt->body[0];
  ASSERT_TRUE(loop.annotation.has_value());
  EXPECT_EQ(loop.annotation->get("lp_iters"), "100");
}

TEST(Parser, AnnotationSkipAndMultiKey) {
  auto unit = parseOk("void f(int n) {\n"
                      "  #pragma @Annotation {lp_init:x, lp_cond:y}\n"
                      "  for (int i = 0; i < n; i++) { n = n; }\n"
                      "  #pragma @Annotation {skip:yes}\n"
                      "  n = n + 1;\n"
                      "}");
  const auto &stmts = unit->functions[0]->bodyStmt->body;
  ASSERT_TRUE(stmts[0]->annotation.has_value());
  EXPECT_EQ(stmts[0]->annotation->get("lp_init"), "x");
  EXPECT_EQ(stmts[0]->annotation->get("lp_cond"), "y");
  ASSERT_TRUE(stmts[1]->annotation.has_value());
  EXPECT_TRUE(stmts[1]->annotation->skip());
}

TEST(Parser, ContinuationPragmaParsesItsEntries) {
  auto unit = parseOk("void f(int n) {\n"
                      "  #pragma @Annotation \\\n"
                      "    {lp_init:x, \\\n"
                      "     lp_cond:y}\n"
                      "  for (int i = 0; i < n; i++) { n = n; }\n"
                      "}");
  const Statement &loop = *unit->functions[0]->bodyStmt->body[0];
  ASSERT_TRUE(loop.annotation.has_value());
  const std::map<std::string, std::string> expected = {{"lp_init", "x"},
                                                       {"lp_cond", "y"}};
  EXPECT_EQ(loop.annotation->entries, expected);
  EXPECT_EQ(loop.annotation->location.line, 2u);
  EXPECT_EQ(loop.range.begin.line, 5u);
}

TEST(Parser, DiagnosticsQuoteTokensExactly) {
  DiagnosticEngine diags;
  Parser::parse("void f() {\n"
                "  int x = 1 foo;\n"
                "  #pragma omp \\\n"
                "parallel\n"
                "  x = #pragma a \\\n"
                "b\n"
                ";\n"
                "}",
                "t.mc", diags);
  std::vector<std::string> messages;
  for (const Diagnostic &d : diags.all())
    messages.push_back(d.message);
  const std::vector<std::string> expected = {
      "expected ';' after declaration, found identifier 'foo'",
      "unrecognized pragma ignored: pragma omp parallel",
      "expected expression, found pragma 'pragma a b'",
  };
  EXPECT_EQ(messages, expected) << diags.str();
  ASSERT_GE(diags.all().size(), 2u);
  EXPECT_EQ(diags.all()[0].location.line, 2u);
  EXPECT_EQ(diags.all()[0].location.column, 13u);
  EXPECT_EQ(diags.all()[1].severity, DiagSeverity::Warning);
  EXPECT_EQ(diags.all()[1].location.line, 3u);
}

TEST(Parser, MalformedAnnotationDiagnosed) {
  DiagnosticEngine diags;
  Parser::parse("void f() {\n#pragma @Annotation no-braces\nint x = 0;\n}",
                "t.mc", diags);
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_TRUE(diags.containsMessage("malformed @Annotation"));
}

TEST(Parser, IfElseChain) {
  auto unit = parseOk("void f(int a) {\n"
                      "  if (a > 0) { a = 1; } else if (a < 0) { a = 2; }\n"
                      "  else { a = 3; }\n"
                      "}");
  const Statement &ifStmt = *unit->functions[0]->bodyStmt->body[0];
  EXPECT_EQ(ifStmt.kind, StmtKind::If);
  ASSERT_NE(ifStmt.elseBranch, nullptr);
  EXPECT_EQ(ifStmt.elseBranch->kind, StmtKind::If);
}

TEST(Parser, WhileLoop) {
  auto unit = parseOk("void f(int a) { while (a > 0) { a = a - 1; } }");
  const Statement &w = *unit->functions[0]->bodyStmt->body[0];
  EXPECT_EQ(w.kind, StmtKind::While);
  ASSERT_NE(w.forCond, nullptr);
  ASSERT_NE(w.loopBody, nullptr);
}

TEST(Parser, LineNumbersPreservedOnStatements) {
  auto unit = parseOk("void f(int a) {\n" // line 1
                      "  a = 1;\n"        // line 2
                      "  a = 2;\n"        // line 3
                      "}");
  const auto &stmts = unit->functions[0]->bodyStmt->body;
  EXPECT_EQ(stmts[0]->range.begin.line, 2u);
  EXPECT_EQ(stmts[1]->range.begin.line, 3u);
}

TEST(Parser, ErrorRecoveryProducesDiagnosticsNotCrash) {
  DiagnosticEngine diags;
  auto unit = Parser::parse("void f() { int x = ; y***; }", "t.mc", diags);
  EXPECT_TRUE(diags.hasErrors());
  ASSERT_NE(unit, nullptr); // partial AST still returned
}

TEST(Parser, MissingSemicolonDiagnosed) {
  DiagnosticEngine diags;
  Parser::parse("void f() { int x = 1 }", "t.mc", diags);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Parser, FindFunctionQualifiedLookup) {
  auto unit = parseOk("class A { public: void m(int i) { i = i; } };\n"
                      "void g() { }\n");
  EXPECT_NE(unit->findFunction("A::m"), nullptr);
  EXPECT_NE(unit->findFunction("g"), nullptr);
  EXPECT_EQ(unit->findFunction("nope"), nullptr);
  EXPECT_EQ(unit->allFunctions().size(), 2u);
}

// -------------------------------------------------------------- AST arena
//
// Nodes live in their unit's arena and their destructors run when the unit
// dies. The names below are longer than a string's inline buffer, so every
// node holding one owns a heap block: a destructor that does not run leaks
// it, which the sanitizer job's leak check reports.

/// A source whose every identifier and annotation value owns heap memory,
/// with `statements` statements in one function body (enough of them
/// spill the body list and the nodes over several arena chunks).
std::string longNamedSource(int statements) {
  const std::string v = "a_variable_name_longer_than_any_inline_buffer";
  std::string src = "class A_class_name_longer_than_any_inline_buffer {\n"
                    "public:\n"
                    "  double a_field_name_longer_than_any_inline_buffer;\n"
                    "  int a_method_name_longer_than_any_inline_buffer("
                    "int a_parameter_name_longer_than_any_inline_buffer) {\n"
                    "    return a_parameter_name_longer_than_any_inline_buffer;"
                    "\n  }\n};\n";
  src += "double f(int n, double* a_pointer_longer_than_any_inline_buffer) {\n";
  src += "  double " + v + " = 0.0;\n";
  for (int i = 0; i < statements; ++i) {
    if (i % 50 == 0)
      src += "  #pragma @Annotation {lp_iters:a_long_annotation_value_" +
             std::to_string(i) + "_longer_than_any_inline_buffer}\n";
    src += "  for (int i = 0; i < n; i++) " + v + " = " + v +
           " + a_pointer_longer_than_any_inline_buffer[i] * 0.5;\n";
  }
  src += "  return " + v + ";\n}\n";
  return src;
}

TEST(AstArena, FullParseBuildsEveryNodeAndFreesThemWithTheUnit) {
  const std::string src = longNamedSource(2000);
  auto unit = parseOk(src);
  ASSERT_NE(unit, nullptr);
  ASSERT_EQ(unit->classes.size(), 1u);
  ASSERT_EQ(unit->classes[0]->methods.size(), 1u);
  EXPECT_EQ(unit->classes[0]->methods[0]->params[0].name,
            "a_parameter_name_longer_than_any_inline_buffer");
  ASSERT_EQ(unit->functions.size(), 1u);
  const Statement &body = *unit->functions[0]->bodyStmt;
  // The declaration, 2000 loops and the return: a list past one chunk.
  ASSERT_EQ(body.body.size(), 2002u);
  const Statement &last = *body.body[2000];
  ASSERT_EQ(last.kind, StmtKind::For);
  EXPECT_EQ(last.range.begin.line, 2049u); // 9 + 2000 loops + 40 pragmas
  const Expression &assign = *last.loopBody->expr;
  ASSERT_EQ(assign.kind, ExprKind::Assign);
  EXPECT_EQ(assign.children[1]->children[1]->children[0]->children[0]->name,
            "a_pointer_longer_than_any_inline_buffer");
  ASSERT_TRUE(body.body[1951]->annotation);
  EXPECT_EQ(*body.body[1951]->annotation->get("lp_iters"),
            "a_long_annotation_value_1950_longer_than_any_inline_buffer");
  unit.reset();
}

TEST(AstArena, ParseFailingMidStatementFreesItsPartialTree) {
  // Each of these stops inside a statement or declaration, leaving built
  // nodes and lists behind that no unit list adopts (the function without
  // a body is dropped whole).
  const char *const sources[] = {
      "double f(int a_parameter_name_longer_than_any_inline_buffer) {\n"
      "  double a_variable_name_longer_than_any_inline_buffer = (1.0 + ;\n"
      "}\n",
      "int g(int a_parameter_name_longer_than_any_inline_buffer,"
      " double another_parameter_longer_than_any_inline_buffer)\n",
      "void h() { for (int i = 0; i < a_bound_longer_than_any_inline_buffer(",
      "class A_class_name_longer_than_any_inline_buffer { public: int "
      "a_method_name_longer_than_any_inline_buffer(int x) "};
  for (const char *src : sources) {
    DiagnosticEngine diags;
    auto unit = Parser::parse(src, "broken.mc", diags);
    EXPECT_TRUE(diags.hasErrors()) << src;
    ASSERT_NE(unit, nullptr) << src;
  }
}

TEST(AstArena, UnitsParsedOnOneThreadAreDestroyedOnAnother) {
  // No arena is shared or thread-local: a unit parsed on one thread and
  // destroyed on another touches only its own chunks (the ThreadSanitizer
  // job runs this suite).
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<TranslationUnit>> units(kThreads);
  std::vector<std::thread> parsers;
  for (int t = 0; t < kThreads; ++t)
    parsers.emplace_back([&units, t] {
      DiagnosticEngine diags;
      units[t] = Parser::parse(longNamedSource(100 + t), "t.mc", diags);
    });
  for (std::thread &parser : parsers)
    parser.join();
  std::vector<std::thread> destroyers;
  std::vector<std::size_t> sizes(kThreads);
  for (int t = 0; t < kThreads; ++t)
    destroyers.emplace_back(
        [&sizes, t, unit = std::move(units[(t + 1) % kThreads])]() mutable {
          sizes[t] = unit->functions[0]->bodyStmt->body.size();
          unit.reset();
        });
  for (std::thread &destroyer : destroyers)
    destroyer.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(sizes[t], 102u + static_cast<std::size_t>((t + 1) % kThreads));
}

} // namespace
} // namespace mira::frontend
