#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "symbolic/expr.h"
#include "symbolic/interner.h"
#include "symbolic/polynomial.h"
#include "symbolic/rational.h"
#include "symbolic/summation.h"

namespace mira::symbolic {
namespace {

Symbol sym(const std::string &name) {
  return ExprInterner::current().symbol(name);
}
SymbolValues at(const Env &env) { return ExprInterner::current().values(env); }

// ---------------------------------------------------------------- Rational

TEST(Rational, NormalizesSignAndGcd) {
  Rational r(6, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 2);
  EXPECT_EQ(Rational(0, 5), Rational(0));
}

TEST(Rational, Arithmetic) {
  Rational a(1, 2), b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
  EXPECT_EQ(-a, Rational(-1, 2));
}

TEST(Rational, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GE(Rational(2, 4), Rational(1, 2));
}

TEST(Rational, IntegerConversion) {
  EXPECT_TRUE(Rational(8, 4).isInteger());
  EXPECT_EQ(Rational(8, 4).asInteger(), 2);
  EXPECT_THROW(Rational(1, 2).asInteger(), ArithmeticError);
  EXPECT_THROW(Rational(1, 0), ArithmeticError);
}

TEST(CheckedArithmetic, Overflow) {
  EXPECT_THROW(checkedMul(INT64_MAX, 2), ArithmeticError);
  EXPECT_THROW(checkedAdd(INT64_MAX, 1), ArithmeticError);
  EXPECT_EQ(checkedSub(5, 7), -2);
}

TEST(FloorOps, MathematicalSemantics) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorMod(-7, 2), 1);
  EXPECT_EQ(floorMod(7, 4), 3);
  EXPECT_THROW(floorDiv(1, 0), ArithmeticError);
}

TEST(Binomial, KnownValues) {
  EXPECT_EQ(binomial(5, 2), 10);
  EXPECT_EQ(binomial(10, 0), 1);
  EXPECT_EQ(binomial(10, 10), 1);
  EXPECT_EQ(binomial(3, 5), 0);
  EXPECT_EQ(binomial(20, 10), 184756);
}

// -------------------------------------------------------------------- Expr

TEST(Expr, ConstantFolding) {
  Expr e = Expr::intConst(2) + Expr::intConst(3);
  EXPECT_TRUE(e.isIntConst(5));
  e = Expr::intConst(4) * Expr::intConst(6);
  EXPECT_TRUE(e.isIntConst(24));
}

TEST(Expr, LikeTermCombination) {
  Expr n = Expr::param("N");
  Expr e = n + n + n;
  Env env{{"N", 7}};
  EXPECT_EQ(e.evaluate(env), 21);
  // 3*N - 3*N == 0 structurally
  Expr z = e - e;
  EXPECT_TRUE(z.isIntConst(0));
}

TEST(Expr, CanonicalizationMakesEqualExprsEqual) {
  Expr a = Expr::param("x") + Expr::param("y");
  Expr b = Expr::param("y") + Expr::param("x");
  EXPECT_TRUE(a.equals(b));
  Expr c = Expr::param("x") * Expr::param("y") * Expr::intConst(2);
  Expr d = Expr::intConst(2) * Expr::param("y") * Expr::param("x");
  EXPECT_TRUE(c.equals(d));
}

TEST(Expr, EvaluateMissingParamFails) {
  Expr e = Expr::param("N") + Expr::intConst(1);
  EXPECT_FALSE(e.evaluate({}).has_value());
}

TEST(Expr, FloorDivModMinMax) {
  Expr n = Expr::param("N");
  Env env{{"N", 10}};
  EXPECT_EQ(Expr::floorDiv(n, Expr::intConst(3)).evaluate(env), 3);
  EXPECT_EQ(Expr::mod(n, Expr::intConst(3)).evaluate(env), 1);
  EXPECT_EQ(Expr::min(n, Expr::intConst(4)).evaluate(env), 4);
  EXPECT_EQ(Expr::max(n, Expr::intConst(4)).evaluate(env), 10);
}

TEST(Expr, FloorDivByOneIsIdentity) {
  Expr n = Expr::param("N");
  EXPECT_TRUE(Expr::floorDiv(n, Expr::intConst(1)).equals(n));
}

TEST(Expr, ExactDivDetectsRemainder) {
  Expr e = Expr::exactDiv(Expr::param("N"), Expr::intConst(2));
  EXPECT_EQ(e.evaluate({{"N", 10}}), 5);
  // A remainder indicates a bug in the closed-form producer: evaluation
  // must fail loudly (nullopt), not round silently.
  EXPECT_FALSE(e.evaluate({{"N", 11}}).has_value());
}

TEST(Expr, SumEvaluates) {
  // sum_{i=1}^{N} i = N(N+1)/2
  Expr s = Expr::sum("i", Expr::intConst(1), Expr::param("N"),
                     Expr::param("i"));
  EXPECT_EQ(s.evaluate({{"N", 100}}), 5050);
}

TEST(Expr, SumEmptyRangeIsZero) {
  Expr s = Expr::sum("i", Expr::intConst(5), Expr::intConst(4),
                     Expr::param("i"));
  EXPECT_TRUE(s.isIntConst(0));
}

TEST(Expr, SumBindsItsVariable) {
  Expr s = Expr::sum("i", Expr::intConst(1), Expr::intConst(3),
                     Expr::param("i") * Expr::param("M"));
  auto params = s.parameters();
  EXPECT_TRUE(params.count("M"));
  EXPECT_FALSE(params.count("i"));
}

TEST(Expr, Substitute) {
  Expr e = Expr::param("N") * Expr::param("N") + Expr::intConst(1);
  Expr sub = e.substitute("N", Expr::intConst(5));
  EXPECT_TRUE(sub.isIntConst(26));
}

TEST(Expr, SubstituteRespectsSumBinding) {
  // substituting "i" must not touch the bound variable inside the sum body
  Expr s = Expr::sum("i", Expr::intConst(1), Expr::param("i"),
                     Expr::param("i"));
  Expr sub = s.substitute("i", Expr::intConst(4));
  // outer occurrence (the hi bound) replaced; body still sums the bound var
  EXPECT_EQ(sub.evaluate({}), 10); // 1+2+3+4
}

TEST(Expr, PythonPrinting) {
  Expr e = Expr::floorDiv(Expr::param("N"), Expr::intConst(2));
  EXPECT_NE(e.toPython().find("//"), std::string::npos);
  Expr s = Expr::sum("i", Expr::intConst(1), Expr::param("N"),
                     Expr::param("i"));
  EXPECT_NE(s.toPython().find("range("), std::string::npos);
}

TEST(Expr, EvaluateOverflowReturnsNullopt) {
  Expr e = Expr::param("N") * Expr::param("N");
  EXPECT_FALSE(e.evaluate({{"N", INT64_MAX / 2}}).has_value());
}

// -------------------------------------------------------------- Polynomial

TEST(Polynomial, BasicArithmetic) {
  Polynomial x = Polynomial::variable(sym("x"));
  Polynomial p = x * x + x.scaled(Rational(2)) + Polynomial{Rational(1)};
  EXPECT_EQ(p.degree(), 2);
  EXPECT_EQ(p.evaluate(at({{"x", 3}})), 16); // 9 + 6 + 1
}

TEST(Polynomial, MultivariateProduct) {
  Polynomial x = Polynomial::variable(sym("x"));
  Polynomial y = Polynomial::variable(sym("y"));
  Polynomial p = (x + y) * (x - y); // x^2 - y^2
  EXPECT_EQ(p.evaluate(at({{"x", 5}, {"y", 3}})), 16);
  EXPECT_EQ(p.degreeIn(sym("x")), 2);
  EXPECT_EQ(p.degreeIn(sym("y")), 2);
}

TEST(Polynomial, CancellationYieldsZero) {
  Polynomial x = Polynomial::variable(sym("x"));
  Polynomial z = x - x;
  EXPECT_TRUE(z.isZero());
  EXPECT_EQ(z.degree(), 0);
}

TEST(Polynomial, Substitute) {
  Polynomial x = Polynomial::variable(sym("x"));
  Polynomial p = x * x; // x^2
  Polynomial q = p.substitute(
      sym("x"), Polynomial::variable(sym("y")) + Polynomial{Rational(1)});
  EXPECT_EQ(q.evaluate(at({{"y", 2}})), 9); // (2+1)^2
}

TEST(Polynomial, CoefficientsIn) {
  Polynomial x = Polynomial::variable(sym("x"));
  Polynomial n = Polynomial::variable(sym("N"));
  Polynomial p = x * x * n + x.scaled(Rational(3)) + Polynomial{Rational(7)};
  auto coeffs = p.coefficientsIn(sym("x"));
  ASSERT_EQ(coeffs.size(), 3u);
  EXPECT_EQ(coeffs[0].evaluate({}), 7);
  EXPECT_EQ(coeffs[1].evaluate({}), 3);
  EXPECT_EQ(coeffs[2].evaluate(at({{"N", 4}})), 4);
}

TEST(Polynomial, ToExprRoundTrip) {
  // p = (N^2 + N) / 2 — integer-valued with rational coefficients.
  Polynomial n = Polynomial::variable(sym("N"));
  Polynomial p = (n * n + n).scaled(Rational(1, 2));
  Expr e = p.toExpr();
  EXPECT_EQ(e.evaluate({{"N", 9}}), 45);
  auto back = Polynomial::fromExpr(e);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->evaluate(at({{"N", 9}})), 45);
}

TEST(Polynomial, FromExprRejectsFloorDiv) {
  Expr e = Expr::floorDiv(Expr::param("N"), Expr::intConst(2));
  EXPECT_FALSE(Polynomial::fromExpr(e).has_value());
}

// --------------------------------------------------------------- Summation

TEST(Summation, BernoulliNumbers) {
  EXPECT_EQ(bernoulliPlus(0), Rational(1));
  EXPECT_EQ(bernoulliPlus(1), Rational(1, 2));
  EXPECT_EQ(bernoulliPlus(2), Rational(1, 6));
  EXPECT_EQ(bernoulliPlus(3), Rational(0));
  EXPECT_EQ(bernoulliPlus(4), Rational(-1, 30));
  EXPECT_EQ(bernoulliPlus(6), Rational(1, 42));
  EXPECT_EQ(bernoulliPlus(8), Rational(-1, 30));
}

TEST(Summation, FaulhaberKnownFormulas) {
  // S_0(n) = n
  EXPECT_EQ(faulhaber(0, sym("n")).evaluate(at({{"n", 17}})), 17);
  // S_1(n) = n(n+1)/2
  EXPECT_EQ(faulhaber(1, sym("n")).evaluate(at({{"n", 100}})), 5050);
  // S_2(n) = n(n+1)(2n+1)/6
  EXPECT_EQ(faulhaber(2, sym("n")).evaluate(at({{"n", 10}})), 385);
  // S_3(n) = (n(n+1)/2)^2
  EXPECT_EQ(faulhaber(3, sym("n")).evaluate(at({{"n", 10}})), 3025);
}

class FaulhaberSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FaulhaberSweep, MatchesBruteForce) {
  auto [k, n] = GetParam();
  Polynomial s = faulhaber(k, sym("n"));
  std::int64_t expected = 0;
  for (int i = 1; i <= n; ++i) {
    std::int64_t pw = 1;
    for (int j = 0; j < k; ++j)
      pw *= i;
    expected += pw;
  }
  EXPECT_EQ(s.evaluate(at({{"n", n}})), expected)
      << "k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    KNSweep, FaulhaberSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(0, 1, 2, 5, 13, 40)));

TEST(Summation, SumOverRangeTriangular) {
  // Sum_{j=i+1}^{6} 1 = 6 - i for i <= 6
  Polynomial one{Rational(1)};
  Polynomial lo = Polynomial::variable(sym("i")) + Polynomial{Rational(1)};
  Polynomial hi{Rational(6)};
  Polynomial s = sumOverRange(one, sym("j"), lo, hi);
  EXPECT_EQ(s.evaluate(at({{"i", 1}})), 5);
  EXPECT_EQ(s.evaluate(at({{"i", 4}})), 2);
}

TEST(Summation, NestedTriangularCountMatchesPaperListing2) {
  // Paper Listing 2: for i in 1..4, for j in i+1..6 — 14 iterations total.
  Polynomial inner = sumOverRange(Polynomial{Rational(1)}, sym("j"),
                                  Polynomial::variable(sym("i")) +
                                      Polynomial{Rational(1)},
                                  Polynomial{Rational(6)});
  Polynomial total = sumOverRange(inner, sym("i"), Polynomial{Rational(1)},
                                  Polynomial{Rational(4)});
  EXPECT_EQ(total.evaluate({}), 14);
}

TEST(Summation, ParametricRectangle) {
  // Sum_{i=0}^{N-1} Sum_{j=0}^{M-1} 1 = N*M
  Polynomial n = Polynomial::variable(sym("N"));
  Polynomial m = Polynomial::variable(sym("M"));
  Polynomial inner =
      sumOverRange(Polynomial{Rational(1)}, sym("j"), Polynomial{Rational(0)},
                   m - Polynomial{Rational(1)});
  Polynomial total = sumOverRange(inner, sym("i"), Polynomial{Rational(0)},
                                  n - Polynomial{Rational(1)});
  EXPECT_EQ(total.evaluate(at({{"N", 12}, {"M", 9}})), 108);
}

TEST(Summation, FaulhaberTableMatchesBernoulliFormula) {
  const Symbol n = sym("n");
  const Polynomial var = Polynomial::variable(n);
  for (int k = 0; k <= kMaxFaulhaberDegree; ++k) {
    // S_k(n) = 1/(k+1) * Sum_{j=0}^{k} C(k+1, j) * B+_j * n^{k+1-j}.
    const std::vector<Rational> &a = faulhaberCoefficients(k);
    ASSERT_EQ(a.size(), static_cast<std::size_t>(k) + 2);
    EXPECT_EQ(a[0], Rational(0)) << "k=" << k;
    for (int j = 0; j <= k; ++j)
      EXPECT_EQ(a[static_cast<std::size_t>(k + 1 - j)],
                Rational(binomial(k + 1, j)) * bernoulliPlus(j) /
                    Rational(k + 1))
          << "k=" << k << " j=" << j;
    // Independently of the formula: S_k(n) - S_k(n - 1) = n^k.
    Polynomial s = faulhaber(k, n);
    Polynomial step = s - s.substitute(n, var - Polynomial{Rational(1)});
    EXPECT_TRUE((step - var.pow(k)).isZero()) << "k=" << k;
  }
}

// Random polynomials over four symbols, each holding a*b*c*d (more
// variables than a monomial keeps inline): every operation must agree
// with exact evaluation of its operands at random points.
class PolynomialProperty : public ::testing::TestWithParam<int> {};

TEST_P(PolynomialProperty, OperationsAgreeWithEvaluation) {
  ExprInterner interner;
  ExprInterner::Scope scope(interner);
  const Symbol vars[] = {sym("d"), sym("b"), sym("a"), sym("c")};
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> small(-3, 3);
  std::uniform_int_distribution<int> exponent(0, 2);
  auto randomPolynomial = [&] {
    Polynomial p{Rational(1 + std::abs(small(rng)))};
    for (Symbol v : vars)
      p *= Polynomial::variable(v);
    for (int t = 0; t < 4; ++t) {
      Polynomial term{Rational(small(rng), 1 + exponent(rng))};
      for (Symbol v : vars)
        term *= Polynomial::variable(v).pow(exponent(rng));
      p += term;
    }
    return p;
  };
  auto at = [](const Polynomial &p, const SymbolValues &values) {
    auto r = p.evaluateRational(values);
    EXPECT_TRUE(r.has_value());
    return r.value_or(Rational(0));
  };

  for (int trial = 0; trial < 20; ++trial) {
    const Polynomial p = randomPolynomial();
    const Polynomial q = randomPolynomial();
    SymbolValues x(interner.symbolCount());
    for (Symbol v : vars)
      x[static_cast<std::size_t>(v)] = small(rng);
    const Rational px = at(p, x), qx = at(q, x);
    EXPECT_EQ(at(p + q, x), px + qx);
    EXPECT_EQ(at(p - q, x), px - qx);
    EXPECT_EQ(at(p * q, x), px * qx);

    const Symbol v = vars[static_cast<std::size_t>(trial) % 4];
    const auto slot = static_cast<std::size_t>(v);
    // substitute: p(v := r) at x is p at x with v bound to r(x); r has
    // integer coefficients (q's denominators divide 6), so r(x) binds.
    const Polynomial r = q.scaled(Rational(6));
    SymbolValues xr = x;
    xr[slot] = at(r, x).asInteger();
    EXPECT_EQ(at(p.substitute(v, r), x), at(p, xr));

    // coefficientsIn: Sum_k c_k(x) * x_v^k rebuilds p(x).
    Rational rebuilt(0), power(1);
    for (const Polynomial &c : p.coefficientsIn(v)) {
      EXPECT_EQ(c.degreeIn(v), 0);
      rebuilt += at(c, x) * power;
      power *= Rational(*x[slot]);
    }
    EXPECT_EQ(rebuilt, px);

    // sumOverRange over v, bounds in another variable, hi >= lo - 1.
    const Symbol w = vars[(static_cast<std::size_t>(trial) + 1) % 4];
    const Polynomial lo =
        Polynomial::variable(w) + Polynomial{Rational(small(rng))};
    const Polynomial hi =
        lo + Polynomial{Rational(std::abs(small(rng)) + small(rng) % 2)};
    const Rational sum = at(symbolic::sumOverRange(p, v, lo, hi), x);
    Rational expected(0);
    SymbolValues xt = x;
    for (std::int64_t t = at(lo, x).asInteger(); t <= at(hi, x).asInteger();
         ++t) {
      xt[slot] = t;
      expected += at(p, xt);
    }
    EXPECT_EQ(sum, expected) << p.str() << " over " << lo.str() << ".."
                             << hi.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolynomialProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------- interner

TEST(Interner, SymbolsStayInTheirArena) {
  ExprInterner first;
  ExprInterner second;
  const Symbol x = first.symbol("x");
  const Symbol y = first.symbol("y");
  EXPECT_EQ(first.symbol("x"), x); // minted once
  EXPECT_EQ(first.name(y), "y");
  EXPECT_EQ(first.symbolCount(), 2u);
  // Unknown to a sibling, which mints its own ids in its own order.
  EXPECT_EQ(second.symbolCount(), 0u);
  EXPECT_THROW(second.name(x), std::out_of_range);
  const Symbol y2 = second.symbol("y");
  EXPECT_EQ(second.name(y2), "y");
  EXPECT_THROW(second.name(y), std::out_of_range);
  // Param nodes are per arena too.
  Expr px, px2;
  {
    ExprInterner::Scope scope(first);
    px = Expr::param(x);
  }
  {
    ExprInterner::Scope scope(second);
    px2 = Expr::param(second.symbol("x"));
  }
  EXPECT_NE(&px.node(), &px2.node());
  EXPECT_TRUE(px.equals(px2));
}

TEST(Interner, SmallConstantsComeFromSlots) {
  ExprInterner interner;
  ExprInterner::Scope scope(interner);
  Expr zero = Expr::intConst(0);
  const InternStats before = ExprInterner::globalStats();
  // Neither a default Expr nor a small constant reaches the table again.
  Expr again;
  Expr small = Expr::intConst(ExprInterner::kMaxSlotConstant);
  Expr small2 = Expr::intConst(ExprInterner::kMaxSlotConstant);
  const InternStats after = ExprInterner::globalStats();
  EXPECT_EQ(&again.node(), &zero.node());
  EXPECT_EQ(&small.node(), &small2.node());
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 1); // the slot's first fill
  // Outside the slot range constants intern as before.
  Expr big = Expr::intConst(ExprInterner::kMaxSlotConstant + 1);
  Expr big2 = Expr::intConst(ExprInterner::kMaxSlotConstant + 1);
  EXPECT_EQ(&big.node(), &big2.node());
  EXPECT_EQ(ExprInterner::globalStats().hits, after.hits + 1);
}

TEST(Interner, EqualsIsPointerIdentityWithinOneInterner) {
  ExprInterner interner;
  ExprInterner::Scope scope(interner);
  Expr a = Expr::param("N") * Expr::param("M") + Expr::intConst(3);
  Expr b = Expr::param("N") * Expr::param("M") + Expr::intConst(3);
  // Hash-consing: structurally equal construction yields the same node.
  EXPECT_EQ(&a.node(), &b.node());
  EXPECT_TRUE(a.equals(b));
  Expr c = a + Expr::intConst(1);
  EXPECT_NE(&a.node(), &c.node());
  EXPECT_FALSE(a.equals(c));
}

TEST(Interner, CommutedConstructionSharesTheCanonicalNode) {
  ExprInterner interner;
  ExprInterner::Scope scope(interner);
  Expr a = Expr::param("x") + Expr::param("y");
  Expr b = Expr::param("y") + Expr::param("x");
  EXPECT_EQ(&a.node(), &b.node());
}

TEST(Interner, EqualsFallsBackToStructureAcrossInterners) {
  auto build = [] {
    return Expr::sum("i", Expr::intConst(1), Expr::param("N"),
                     Expr::param("i") * Expr::param("i"));
  };
  ExprInterner first;
  ExprInterner second;
  Expr a, b;
  {
    ExprInterner::Scope scope(first);
    a = build();
  }
  {
    ExprInterner::Scope scope(second);
    b = build();
  }
  EXPECT_NE(&a.node(), &b.node()); // different arenas, different nodes
  EXPECT_TRUE(a.equals(b));        // hash + deep walk still agree
}

TEST(Interner, ReinternPreservesStructureAndDedups) {
  ExprInterner first;
  Expr original;
  {
    ExprInterner::Scope scope(first);
    original = Expr::param("N") * Expr::intConst(7) + Expr::param("k");
  }
  ExprInterner second;
  {
    ExprInterner::Scope scope(second);
    Expr restored = Expr::fromNode(
        std::shared_ptr<const ExprNode>(ExprNodeRef(), &original.node()));
    EXPECT_EQ(restored.str(), original.str());
    EXPECT_TRUE(restored.equals(original));
    // A second trip lands on the node the first trip created.
    Expr again = Expr::fromNode(
        std::shared_ptr<const ExprNode>(ExprNodeRef(), &original.node()));
    EXPECT_EQ(&restored.node(), &again.node());
  }
}

TEST(Interner, CountersAdvance) {
  const InternStats before = ExprInterner::globalStats();
  ExprInterner interner;
  ExprInterner::Scope scope(interner);
  Expr a = Expr::param("fresh_counter_param") + Expr::intConst(41);
  Expr b = Expr::param("fresh_counter_param") + Expr::intConst(41);
  EXPECT_TRUE(a.equals(b));
  const InternStats after = ExprInterner::globalStats();
  EXPECT_GT(after.misses, before.misses); // new unique nodes were created
  EXPECT_GT(after.hits, before.hits);     // the rebuild hit the table
}

/// The node `interner` holds for `n + k`, interning `n` and `k` first.
ExprNodeRef paramPlus(ExprInterner &interner, std::int64_t k) {
  const ExprNodeRef operands[] = {
      interner.intern(ExprKind::Param, 0, "n", nullptr, 0),
      interner.intern(ExprKind::IntConst, k, {}, nullptr, 0)};
  return interner.intern(ExprKind::Add, 0, {}, operands, 2);
}

TEST(Interner, TableGrowsAndEveryReinternFindsTheFirstNode) {
  std::vector<ExprNodeRef> nodes;
  {
    ExprInterner interner;
    // 1 + 2 * 3000 distinct nodes: the table grows many times over.
    for (std::int64_t k = 1000; k < 4000; ++k) {
      const ExprNodeRef sum = paramPlus(interner, k);
      if (nodes.empty())
        nodes.push_back(sum->operands[0]);
      nodes.push_back(sum->operands[1]);
      nodes.push_back(sum);
    }
    EXPECT_EQ(interner.size(), nodes.size());
    for (const ExprNodeRef &node : nodes)
      EXPECT_EQ(interner.intern(node->kind, node->value, node->name,
                                node->operands.data(), node->operands.size()),
                node);
    EXPECT_EQ(interner.size(), nodes.size());
  }
  // The nodes outlive their arena wherever they are still referenced.
  EXPECT_EQ(nodes.back()->operands[1]->value, 3999);
}

TEST(Interner, OrderKeysKeepTheirFormat) {
  // Keys decide canonical operand order, and so model bytes.
  ExprInterner interner;
  const ExprNodeRef sum = paramPlus(interner, -3);
  EXPECT_EQ(sum->operands[0]->key, "pn");
  EXPECT_EQ(sum->operands[1]->key, "#-3");
  EXPECT_EQ(sum->key, "A(pn,#-3,)");
  const ExprNodeRef min = interner.intern(
      ExprKind::IntConst, std::numeric_limits<std::int64_t>::min(), {},
      nullptr, 0);
  EXPECT_EQ(min->key, "#-9223372036854775808");
  const ExprNodeRef bounds[] = {min, sum, sum};
  EXPECT_EQ(interner.intern(ExprKind::Sum, 0, "i", bounds, 3)->key,
            "Si(#-9223372036854775808,A(pn,#-3,),A(pn,#-3,),)");
  EXPECT_EQ(interner.intern(ExprKind::Mod, 0, {}, bounds, 2)->key,
            "%(#-9223372036854775808,A(pn,#-3,),)");
  EXPECT_EQ(interner.intern(ExprKind::Max, 0, {}, nullptr, 0)->key, "X()");
}

TEST(Interner, ThreadsSharingOneArenaGetOneNodePerStructure) {
  // intern() locks: threads interning overlapping structures into one
  // arena, each from a different starting point, agree on every node.
  constexpr std::size_t kThreads = 4;
  constexpr std::int64_t kShapes = 400;
  ExprInterner shared;
  std::vector<std::vector<ExprNodeRef>> seen(
      kThreads, std::vector<ExprNodeRef>(kShapes));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::int64_t i = 0; i < kShapes; ++i) {
        const std::int64_t k =
            (i + static_cast<std::int64_t>(t) * kShapes / kThreads) % kShapes;
        seen[t][k] = paramPlus(shared, 1000 + k);
      }
    });
  for (std::thread &thread : threads)
    thread.join();
  for (std::size_t t = 1; t < kThreads; ++t)
    for (std::int64_t k = 0; k < kShapes; ++k)
      EXPECT_EQ(seen[t][k], seen[0][k]) << "thread " << t << ", k " << k;
  EXPECT_EQ(shared.size(), 1 + 2 * static_cast<std::size_t>(kShapes));
}

// ------------------------------------------------- builder crash fixes

TEST(Expr, ZeroDivisorConstantFoldDoesNotThrow) {
  Expr fd = Expr::floorDiv(Expr::intConst(5), Expr::intConst(0));
  EXPECT_EQ(fd.kind(), ExprKind::FloorDiv); // stays symbolic
  EXPECT_EQ(fd.evaluate({}), std::nullopt); // documented contract
  Expr md = Expr::mod(Expr::intConst(5), Expr::intConst(0));
  EXPECT_EQ(md.kind(), ExprKind::Mod);
  EXPECT_EQ(md.evaluate({}), std::nullopt);
}

TEST(Expr, FloorDivIntMinByMinusOneStaysSymbolic) {
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  // The one in-range division whose quotient overflows int64: folding it
  // (or evaluating it) must not be UB or a throw out of the builder.
  Expr fd = Expr::floorDiv(Expr::intConst(kMin), Expr::intConst(-1));
  EXPECT_EQ(fd.kind(), ExprKind::FloorDiv);
  EXPECT_EQ(fd.evaluate({}), std::nullopt);
  Expr ed = Expr::exactDiv(Expr::intConst(kMin), Expr::intConst(-1));
  EXPECT_EQ(ed.kind(), ExprKind::ExactDiv);
  EXPECT_THROW(mira::symbolic::floorDiv(kMin, -1), ArithmeticError);
}

TEST(Expr, OverflowingConstantFoldsStaySymbolic) {
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Expr a = Expr::add({Expr::intConst(kMax), Expr::intConst(1)});
  EXPECT_EQ(a.evaluate({}), std::nullopt); // overflow surfaces at evaluate
  Expr m = Expr::mul({Expr::intConst(kMax), Expr::intConst(2)});
  EXPECT_EQ(m.evaluate({}), std::nullopt);
  // Like-term coefficient merge overflow keeps the terms separate
  // instead of throwing.
  Expr big = Expr::intConst(kMax) * Expr::param("N");
  Expr doubled = Expr::add({big, big});
  EXPECT_EQ(doubled.evaluate({{"N", 0}}), 0);
  // Sum const fold where count * body overflows.
  Expr s = Expr::sum("i", Expr::intConst(0), Expr::intConst(kMax - 1),
                     Expr::intConst(kMax));
  EXPECT_EQ(s.kind(), ExprKind::Sum);
}

TEST(Expr, SubstituteAlphaRenamesOnCapture) {
  // Sum(i, 1, N, N + i) with N -> i: the replacement references the
  // bound variable, so the binder must be renamed before substituting —
  // otherwise the outer i is captured and the meaning changes.
  Expr body = Expr::param("N") + Expr::param("i");
  Expr s = Expr::sum("i", Expr::intConst(1), Expr::intConst(3), body);
  EXPECT_EQ(s.evaluate({{"N", 3}}), 15); // (3+1)+(3+2)+(3+3)

  Expr substituted = s.substitute("N", Expr::param("i"));
  // Same meaning with the outer parameter now spelled i.
  EXPECT_EQ(substituted.evaluate({{"i", 3}}), 15);
  // The capturing reading would have produced Sum(i,1,3,2i) = 12.
  EXPECT_NE(substituted.evaluate({{"i", 3}}), 12);
  // Only the free N was rewritten: the result depends on outer i alone.
  EXPECT_EQ(substituted.parameters(), std::set<std::string>{"i"});
}

TEST(Expr, SubstituteDoesNotRenameWithoutCapture) {
  Expr body = Expr::param("N") + Expr::param("i");
  Expr s = Expr::sum("i", Expr::intConst(1), Expr::param("N"), body);
  Expr substituted = s.substitute("N", Expr::param("M"));
  EXPECT_EQ(substituted.node().name, "i"); // binder untouched
  EXPECT_EQ(substituted.evaluate({{"M", 3}}), 15);
}

class RangeSumProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RangeSumProperty, QuadraticBodyMatchesBruteForce) {
  auto [lo, hi, scale] = GetParam();
  if (hi < lo - 1)
    GTEST_SKIP() << "outside the documented domain (hi >= lo-1)";
  // body: scale*i^2 - i + 3
  Polynomial i = Polynomial::variable(sym("i"));
  Polynomial body =
      i * i * Polynomial{Rational(scale)} - i + Polynomial{Rational(3)};
  Polynomial s = sumOverRange(body, sym("i"), Polynomial{Rational(lo)},
                              Polynomial{Rational(hi)});
  std::int64_t expected = 0;
  for (int v = lo; v <= hi; ++v)
    expected += scale * v * v - v + 3;
  EXPECT_EQ(s.evaluate({}), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RangeSumProperty,
    ::testing::Combine(::testing::Values(-3, 0, 1, 5),
                       ::testing::Values(-3, 0, 4, 17),
                       ::testing::Values(1, 2, 7)));

} // namespace
} // namespace mira::symbolic
