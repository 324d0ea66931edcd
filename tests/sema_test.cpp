#include <gtest/gtest.h>

#include "frontend/parser.h"
#include "sema/loop_analysis.h"
#include "sema/sema.h"
#include "symbolic/interner.h"

namespace mira::sema {
namespace {

using frontend::ExprKind;
using frontend::Parser;
using frontend::ScalarType;
using frontend::Statement;
using frontend::StmtKind;
using frontend::TranslationUnit;

struct Analyzed {
  std::unique_ptr<TranslationUnit> unit;
  SemaResult result;
  DiagnosticEngine diags;
};

Analyzed analyze(const std::string &src) {
  Analyzed out;
  out.unit = Parser::parse(src, "t.mc", out.diags);
  EXPECT_FALSE(out.diags.hasErrors()) << out.diags.str();
  SemanticAnalyzer sema(out.diags);
  out.result = sema.analyze(*out.unit);
  return out;
}

Analyzed analyzeOk(const std::string &src) {
  Analyzed out = analyze(src);
  EXPECT_TRUE(out.result.success) << out.diags.str();
  return out;
}

// ------------------------------------------------------------------- types

TEST(Sema, TypesPropagateThroughArithmetic) {
  auto a = analyzeOk("double f(int i, double d) { return i + d; }");
  const auto &ret = *a.unit->functions[0]->bodyStmt->body[0]->expr;
  EXPECT_EQ(ret.type.scalar, ScalarType::Double);
}

TEST(Sema, ComparisonYieldsBool) {
  auto a = analyzeOk("bool f(int i) { return i < 3; }");
  const auto &ret = *a.unit->functions[0]->bodyStmt->body[0]->expr;
  EXPECT_EQ(ret.type.scalar, ScalarType::Bool);
}

TEST(Sema, IndexingPeelsPointer) {
  auto a = analyzeOk("double f(double* p, int i) { return p[i]; }");
  const auto &ret = *a.unit->functions[0]->bodyStmt->body[0]->expr;
  EXPECT_EQ(ret.type.scalar, ScalarType::Double);
  EXPECT_FALSE(ret.type.isPointer());
}

TEST(Sema, LocalArrayDecaysToPointer) {
  auto a = analyzeOk("void f(int n) { double buf[n]; buf[0] = 1.0; }");
  (void)a;
}

TEST(Sema, UndeclaredIdentifierIsError) {
  auto a = analyze("void f() { x = 1; }");
  EXPECT_FALSE(a.result.success);
  EXPECT_TRUE(a.diags.containsMessage("undeclared identifier"));
}

TEST(Sema, RedeclarationIsError) {
  auto a = analyze("void f() { int x; double x; }");
  EXPECT_FALSE(a.result.success);
  EXPECT_TRUE(a.diags.containsMessage("redeclaration"));
}

TEST(Sema, ModuloOnFloatIsError) {
  auto a = analyze("double f(double d) { return d % 2.0; }");
  EXPECT_FALSE(a.result.success);
}

TEST(Sema, SubscriptOnScalarIsError) {
  auto a = analyze("void f(int i) { i[0] = 1; }");
  EXPECT_FALSE(a.result.success);
}

TEST(Sema, VoidReturnMismatch) {
  auto a = analyze("void f() { return 3; }");
  EXPECT_FALSE(a.result.success);
  auto b = analyze("int f() { return; }");
  EXPECT_FALSE(b.result.success);
}

// -------------------------------------------------------------- resolution

TEST(Sema, ResolvesFreeCall) {
  auto a = analyzeOk("int g(int x) { return x; }\n"
                     "int f() { return g(3); }");
  const auto &call = *a.unit->findFunction("f")->bodyStmt->body[0]->expr;
  EXPECT_EQ(call.resolvedCallee, "g");
  EXPECT_FALSE(call.isExtern);
}

TEST(Sema, ResolvesMethodCall) {
  auto a = analyzeOk("class A { public: int m(int x) { return x; } };\n"
                     "int f() { A a; return a.m(1); }");
  const auto &ret = *a.unit->findFunction("f")->bodyStmt->body[1]->expr;
  EXPECT_EQ(ret.resolvedCallee, "A::m");
}

TEST(Sema, RewritesObjectCallToOperator) {
  auto a = analyzeOk(
      "class M { public: double operator()(double x) { return x; } };\n"
      "double f() { M m; return m(2.0); }");
  const auto &ret = *a.unit->findFunction("f")->bodyStmt->body[1]->expr;
  EXPECT_EQ(ret.kind, ExprKind::Call);
  EXPECT_EQ(ret.resolvedCallee, "M::operator()");
  ASSERT_NE(ret.receiver, nullptr);
}

TEST(Sema, BuiltinsAndExternalsClassified) {
  auto a = analyzeOk("double f(double x) {\n"
                     "  double s = sqrt(x);\n"
                     "  mc_print(s);\n"
                     "  return s;\n"
                     "}");
  const auto &decl = *a.unit->findFunction("f")->bodyStmt->body[0];
  EXPECT_TRUE(decl.declInit->isBuiltin);
  const auto &print = *a.unit->findFunction("f")->bodyStmt->body[1]->expr;
  EXPECT_TRUE(print.isExtern);
}

TEST(Sema, UnknownCalleeIsError) {
  auto a = analyze("void f() { launch_rockets(); }");
  EXPECT_FALSE(a.result.success);
  EXPECT_TRUE(a.diags.containsMessage("undeclared function"));
}

TEST(Sema, ArityMismatchIsError) {
  auto a = analyze("int g(int x) { return x; } void f() { g(1, 2); }");
  EXPECT_FALSE(a.result.success);
}

TEST(Sema, MissingMethodIsError) {
  auto a = analyze("class A { public: int n; };\n"
                   "void f() { A a; a.nope(); }");
  EXPECT_FALSE(a.result.success);
}

TEST(Sema, FieldAccessFromMethodScope) {
  auto a = analyzeOk("class A { public: int n;\n"
                     "  int get() { return n; } };");
  (void)a;
}

TEST(Sema, FieldAccessThroughMember) {
  auto a = analyzeOk("class A { public: int n; };\n"
                     "int f() { A a; return a.n; }");
  (void)a;
}

TEST(Sema, UnknownFieldIsError) {
  auto a = analyze("class A { public: int n; };\n"
                   "int f() { A a; return a.m; }");
  EXPECT_FALSE(a.result.success);
}

// -------------------------------------------------------------- call graph

/// The index sema gave function `name`.
std::uint32_t indexOf(const Analyzed &a, const std::string &name) {
  const frontend::FunctionDecl *fn = a.unit->findFunction(name);
  EXPECT_NE(fn, nullptr) << name;
  return fn ? fn->index : 0;
}

TEST(Sema, CallGraphEdges) {
  auto a = analyzeOk("int leaf(int x) { return x; }\n"
                     "int mid(int x) { return leaf(x); }\n"
                     "int top(int x) { return mid(x) + leaf(x); }");
  const auto &callees = a.result.callGraph.callees;
  ASSERT_EQ(callees.size(), 3u);
  // Each callee once, in qualified-name order.
  EXPECT_EQ(callees[indexOf(a, "top")],
            (std::vector<std::uint32_t>{indexOf(a, "leaf"),
                                        indexOf(a, "mid")}));
  EXPECT_EQ(callees[indexOf(a, "mid")],
            std::vector<std::uint32_t>{indexOf(a, "leaf")});
  EXPECT_TRUE(callees[indexOf(a, "leaf")].empty());
}

TEST(Sema, TopologicalOrderPutsCalleesFirst) {
  auto a = analyzeOk("int leaf(int x) { return x; }\n"
                     "int mid(int x) { return leaf(x); }\n"
                     "int top(int x) { return mid(x); }");
  const auto &order = a.result.callGraph.order;
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&](const std::string &n) {
    return std::find(order.begin(), order.end(), indexOf(a, n)) -
           order.begin();
  };
  EXPECT_LT(pos("leaf"), pos("mid"));
  EXPECT_LT(pos("mid"), pos("top"));
}

TEST(Sema, CallOrderVisitsRootsAndCalleesByQualifiedName) {
  // A depth-first post-order whose roots and callee lists go in
  // qualified-name order, whatever the declaration order: the model
  // lists its functions in exactly this order.
  auto a = analyzeOk("class B { public: int m(int x) { return x; } };\n"
                     "int c(int x) { return x; }\n"
                     "int b(int x) { return x; }\n"
                     "int a(int x) { B o; return c(x) + o.m(x) + b(x); }\n"
                     "int d(int x) { return x; }");
  std::vector<std::uint32_t> expected;
  for (const char *name : {"B::m", "b", "c", "a", "d"})
    expected.push_back(indexOf(a, name));
  EXPECT_EQ(a.result.callGraph.order, expected);
}

TEST(Sema, RecursionIsDiagnosed) {
  auto a = analyze("int f(int x) { return f(x - 1); }");
  EXPECT_FALSE(a.result.success);
  EXPECT_TRUE(a.diags.containsMessage("recursive"));
}

// ----------------------------------------------------------------- bindings

/// The expression of the `k`th statement of `fn`'s body.
const frontend::Expression &returned(const Analyzed &a, const std::string &fn,
                                     std::size_t k) {
  return *a.unit->findFunction(fn)->bodyStmt->body[k]->expr;
}

TEST(SemaBinding, ParametersThenDeclarationsGetSlotsInOrder) {
  auto a = analyzeOk("double f(int n, double x) {\n"
                     "  int i = 1;\n"
                     "  double s = x;\n"
                     "  return s + n + i;\n"
                     "}");
  const auto &body = a.unit->findFunction("f")->bodyStmt->body;
  EXPECT_EQ(body[0]->declSlot, 2);
  EXPECT_EQ(body[1]->declSlot, 3);
  EXPECT_EQ(body[1]->declInit->slot, 1); // x
  const auto &sum = returned(a, "f", 2);     // (s + n) + i
  EXPECT_EQ(sum.children[0]->children[0]->slot, 3);
  EXPECT_EQ(sum.children[0]->children[1]->slot, 0);
  EXPECT_EQ(sum.children[1]->slot, 2);
  EXPECT_EQ(sum.children[1]->field, -1);
}

TEST(SemaBinding, InnerRedeclarationGetsANewSlotAndEndsWithItsBlock) {
  auto a = analyzeOk("int f(int n) {\n"
                     "  int x = 1;\n"
                     "  {\n"
                     "    int x = 2;\n"
                     "    n = x;\n"
                     "  }\n"
                     "  return x;\n"
                     "}");
  const auto &body = a.unit->findFunction("f")->bodyStmt->body;
  const auto &inner = body[1]->body;
  EXPECT_EQ(body[0]->declSlot, 1);
  EXPECT_EQ(inner[0]->declSlot, 2);
  EXPECT_EQ(inner[1]->expr->children[0]->slot, 0); // n
  EXPECT_EQ(inner[1]->expr->children[1]->slot, 2); // the inner x
  EXPECT_EQ(returned(a, "f", 2).slot, 1);          // the outer x
}

TEST(SemaBinding, ForInitDeclarationEndsWithItsLoop) {
  auto a = analyzeOk("double f(int n) {\n"
                     "  int i = 3;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "  }\n"
                     "  double s = 0;\n"
                     "  for (int j = 0; j < i; j++) {\n"
                     "    s = s + 1.5;\n"
                     "  }\n"
                     "  return s;\n"
                     "}");
  const auto &body = a.unit->findFunction("f")->bodyStmt->body;
  EXPECT_EQ(body[0]->declSlot, 1);
  const Statement &first = *body[1];
  EXPECT_EQ(first.forInit->declSlot, 2);
  EXPECT_EQ(first.forCond->children[0]->slot, 2);
  EXPECT_EQ(first.forInc->children[0]->slot, 2);
  EXPECT_EQ(body[2]->declSlot, 3);
  const Statement &second = *body[3];
  EXPECT_EQ(second.forInit->declSlot, 4);
  EXPECT_EQ(second.forCond->children[1]->slot, 1); // the outer i
}

TEST(SemaBinding, FieldsBindTheirIndexBareAndThroughMember) {
  auto a = analyzeOk("class A {\n"
                     "public:\n"
                     "  int n;\n"
                     "  double s;\n"
                     "  double get() { return s; }\n"
                     "};\n"
                     "double f() { A a; return a.s; }");
  const auto &bare = returned(a, "A::get", 0);
  EXPECT_EQ(bare.kind, ExprKind::VarRef);
  EXPECT_EQ(bare.slot, -1);
  EXPECT_EQ(bare.field, 1);
  const auto &member = returned(a, "f", 1);
  EXPECT_EQ(member.kind, ExprKind::Member);
  EXPECT_EQ(member.field, 1);
  EXPECT_EQ(member.children[0]->slot, 0);
}

TEST(SemaBinding, OperatorCallReceiverBindsItsLocal) {
  auto a = analyzeOk(
      "class M { public: double operator()(double x) { return x; } };\n"
      "double f(double y) { M m; return m(y); }");
  const auto &call = returned(a, "f", 1);
  ASSERT_NE(call.receiver, nullptr);
  EXPECT_EQ(call.receiver->slot, 1);
  EXPECT_EQ(call.children[0]->slot, 0);
}

TEST(SemaBinding, CallsBindTheirFunctionDecl) {
  auto a = analyzeOk("class A { public: int m(int x) { return x; } };\n"
                     "int g(int x) { return x; }\n"
                     "double f(double d) { A a; return g(a.m(1)) + sqrt(d); }");
  const auto &sum = returned(a, "f", 1);
  const auto &freeCall = *sum.children[0];
  EXPECT_EQ(freeCall.callee, a.unit->findFunction("g"));
  EXPECT_EQ(freeCall.resolvedCallee, "g");
  const auto &method = *freeCall.children[0];
  EXPECT_EQ(method.callee, a.unit->findFunction("A::m"));
  EXPECT_EQ(method.resolvedCallee, "A::m");
  const auto &builtin = *sum.children[1];
  EXPECT_EQ(builtin.callee, nullptr);
  EXPECT_EQ(builtin.resolvedCallee, "sqrt");
}

TEST(Sema, DuplicateFieldIsError) {
  auto a = analyze("class A {\n"
                   "public:\n"
                   "  int n;\n"
                   "  double n;\n"
                   "  double get() { return n; }\n"
                   "};\n"
                   "double f(int k) {\n"
                   "  A a;\n"
                   "  a.n = 2.5;\n"
                   "  return a.get() + a.n;\n"
                   "}");
  EXPECT_FALSE(a.result.success);
  EXPECT_TRUE(a.diags.containsMessage("redeclaration of field 'n'"))
      << a.diags.str();
}

TEST(Sema, DuplicateClassIsError) {
  auto a = analyze("class A { public: int n; };\n"
                   "class A { public: double m; };\n"
                   "int f() { A a; return a.n; }");
  EXPECT_FALSE(a.result.success);
  EXPECT_TRUE(a.diags.containsMessage("redefinition of class 'A'"))
      << a.diags.str();
}

// ------------------------------------------------------------ loop analysis

symbolic::Symbol sym(const char *name) {
  return symbolic::ExprInterner::current().symbol(name);
}

const Statement &firstLoop(const TranslationUnit &unit,
                           const std::string &fn = "f") {
  const auto *decl = unit.findFunction(fn);
  EXPECT_NE(decl, nullptr);
  for (const auto &s : decl->bodyStmt->body)
    if (s->kind == StmtKind::For)
      return *s;
  throw std::runtime_error("no loop in function");
}

TEST(LoopAnalysis, BasicLoopListing1) {
  auto a = analyzeOk("void f() { for (int i = 0; i < 10; i++) { } }");
  LoopInfo info = analyzeForLoop(firstLoop(*a.unit));
  ASSERT_TRUE(info.recognized) << info.failReason;
  EXPECT_EQ(symbolic::ExprInterner::current().name(info.var), "i");
  EXPECT_EQ(info.lowerBound.constant(), 0);
  EXPECT_EQ(info.upperBound.constant(), 9); // i < 10 normalized to <= 9
  EXPECT_EQ(info.step, 1);
}

TEST(LoopAnalysis, ParametricBound) {
  auto a = analyzeOk("void f(int n) { for (int i = 0; i < n; i++) { } }");
  LoopInfo info = analyzeForLoop(firstLoop(*a.unit));
  ASSERT_TRUE(info.recognized);
  EXPECT_EQ(info.upperBound.coeff(sym("n")), 1);
  EXPECT_EQ(info.upperBound.constant(), -1);
}

TEST(LoopAnalysis, AssignInitForm) {
  auto a = analyzeOk("void f(int n) { int i;\n"
                     "  for (i = 1; i <= n; i = i + 2) { } }");
  LoopInfo info = analyzeForLoop(firstLoop(*a.unit));
  ASSERT_TRUE(info.recognized) << info.failReason;
  EXPECT_EQ(info.step, 2);
  EXPECT_EQ(info.lowerBound.constant(), 1);
}

TEST(LoopAnalysis, PlusAssignStep) {
  auto a = analyzeOk("void f(int n) { for (int i = 0; i < n; i += 4) { } }");
  LoopInfo info = analyzeForLoop(firstLoop(*a.unit));
  ASSERT_TRUE(info.recognized);
  EXPECT_EQ(info.step, 4);
}

TEST(LoopAnalysis, TriangularBoundDependsOnOuterVar) {
  auto a = analyzeOk("void f() {\n"
                     "  for (int i = 1; i <= 4; i++)\n"
                     "    for (int j = i + 1; j <= 6; j++) { }\n"
                     "}");
  const Statement &outer = firstLoop(*a.unit);
  LoopInfo inner = analyzeForLoop(*outer.loopBody);
  ASSERT_TRUE(inner.recognized);
  EXPECT_EQ(inner.lowerBound.coeff(sym("i")), 1);
  EXPECT_EQ(inner.lowerBound.constant(), 1);
}

TEST(LoopAnalysis, NonAffineBoundFails) {
  auto a = analyzeOk("void f(int n, int* v) {\n"
                     "  for (int i = v[0]; i < n; i++) { }\n"
                     "}");
  LoopInfo info = analyzeForLoop(firstLoop(*a.unit));
  EXPECT_FALSE(info.recognized);
  EXPECT_NE(info.failReason.find("not affine"), std::string::npos);
}

TEST(LoopAnalysis, MinMaxBoundFailsLikePaperListing3) {
  auto a = analyzeOk("void f(int n) {\n"
                     "  for (int j = min(6 - n, 3); j <= n; j++) { }\n"
                     "}");
  LoopInfo info = analyzeForLoop(firstLoop(*a.unit));
  EXPECT_FALSE(info.recognized);
}

TEST(LoopAnalysis, DecrementLoopNotRecognized) {
  auto a = analyzeOk("void f(int n) { for (int i = n; i > 0; i--) { } }");
  LoopInfo info = analyzeForLoop(firstLoop(*a.unit));
  EXPECT_FALSE(info.recognized);
}

TEST(LoopAnalysis, ReversedConditionNormalized) {
  auto a = analyzeOk("void f(int n) { for (int i = 0; n > i; i++) { } }");
  LoopInfo info = analyzeForLoop(firstLoop(*a.unit));
  ASSERT_TRUE(info.recognized) << info.failReason;
  EXPECT_EQ(info.upperBound.coeff(sym("n")), 1);
  EXPECT_EQ(info.upperBound.constant(), -1);
}

TEST(ExprToAffine, HandlesScaledSums) {
  auto a = analyzeOk("void f(int n, int m) {\n"
                     "  for (int i = 2 * n + 3 * m - 1; i < n; i++) { }\n"
                     "}");
  LoopInfo info = analyzeForLoop(firstLoop(*a.unit));
  ASSERT_TRUE(info.recognized);
  EXPECT_EQ(info.lowerBound.coeff(sym("n")), 2);
  EXPECT_EQ(info.lowerBound.coeff(sym("m")), 3);
  EXPECT_EQ(info.lowerBound.constant(), -1);
}

TEST(ExprToAffine, IntMinByMinusOneIsNotAffine) {
  // INT64_MIN / -1 has no int64 quotient, and computing its remainder
  // traps, whether the dividend is the constant or a coefficient.
  auto a = analyzeOk(
      "void f(int n) {\n"
      "  for (int i = (-9223372036854775807 - 1) / -1; i < n; i++) { }\n"
      "  for (int i = (n * (-9223372036854775807 - 1)) / -1; i < n; i++) { }\n"
      "  for (int i = (2 * n + 6) / -1; i < n; i++) { }\n"
      "}");
  std::vector<const Statement *> loops;
  for (const auto &s : a.unit->findFunction("f")->bodyStmt->body)
    loops.push_back(s.get());
  ASSERT_EQ(loops.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(exprToAffine(*loops[i]->forInit->declInit).has_value());
    LoopInfo info = analyzeForLoop(*loops[i]);
    EXPECT_FALSE(info.recognized);
    EXPECT_NE(info.failReason.find("not affine"), std::string::npos);
  }
  // Other quotients by -1 stay exact.
  auto quotient = exprToAffine(*loops[2]->forInit->declInit);
  ASSERT_TRUE(quotient.has_value());
  EXPECT_EQ(quotient->coeff(sym("n")), -2);
  EXPECT_EQ(quotient->constant(), -6);
}

TEST(ExprToAffine, Int64OverflowIsNotAffine) {
  auto a = analyzeOk(
      "void f(int n) {\n"
      "  for (int i = 0; i < 4611686018427387904 * 4 + n; i++) { }\n"
      "  for (int i = 0; i < -9223372036854775807 - 1; i++) { }\n"
      "}");
  const auto &body = a.unit->findFunction("f")->bodyStmt->body;
  ASSERT_EQ(body.size(), 2u);
  // The bound's coefficient overflows.
  EXPECT_FALSE(exprToAffine(*body[0]->forCond->children[1]).has_value());
  // The bound is affine, but normalizing '<' to '<=' overflows.
  EXPECT_TRUE(exprToAffine(*body[1]->forCond->children[1]).has_value());
  for (const auto &loop : body) {
    LoopInfo info = analyzeForLoop(*loop);
    EXPECT_FALSE(info.recognized);
    EXPECT_NE(info.failReason.find("not affine"), std::string::npos)
        << info.failReason;
  }
}

TEST(ExprToAffine, RejectsNonLinear) {
  auto a = analyzeOk("void f(int n) { for (int i = n * n; i < n; i++) { } }");
  LoopInfo info = analyzeForLoop(firstLoop(*a.unit));
  EXPECT_FALSE(info.recognized);
}

} // namespace
} // namespace mira::sema
