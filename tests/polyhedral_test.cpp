#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "polyhedral/affine.h"
#include "polyhedral/counting.h"
#include "polyhedral/fourier_motzkin.h"
#include "symbolic/interner.h"

namespace mira::polyhedral {
namespace {

using symbolic::Env;
using symbolic::Expr;
using symbolic::ExprInterner;

Symbol sym(const std::string &name) {
  return ExprInterner::current().symbol(name);
}
AffineExpr var(const std::string &name) {
  return AffineExpr::variable(sym(name));
}
AffineExpr cst(std::int64_t v) { return AffineExpr(v); }
SymbolValues at(const Env &env) { return ExprInterner::current().values(env); }

// ------------------------------------------------------------- AffineExpr

TEST(AffineExpr, Arithmetic) {
  AffineExpr e = var("i").scaled(2) + var("j") - cst(3);
  EXPECT_EQ(e.coeff(sym("i")), 2);
  EXPECT_EQ(e.coeff(sym("j")), 1);
  EXPECT_EQ(e.constant(), -3);
  EXPECT_EQ(e.evaluate(at({{"i", 4}, {"j", 1}})), 6);
}

TEST(AffineExpr, MoreTermsThanInlineCapacity) {
  // Five variables spill the term array to the heap; copies, merges and
  // removals must behave as they do inline.
  AffineExpr e = cst(7);
  for (const char *v : {"v", "w", "x", "y", "z"})
    e += var(v).scaled(2);
  AffineExpr copy = e;
  EXPECT_EQ(copy, e);
  EXPECT_EQ(copy.terms().size(), 5u);
  AffineExpr diff = copy - var("x").scaled(2);
  EXPECT_FALSE(diff.involves(sym("x")));
  EXPECT_EQ(diff.without(sym("v")).terms().size(), 3u);
  EXPECT_EQ(e.evaluate(at({{"v", 1}, {"w", 1}, {"x", 1}, {"y", 1}, {"z", 1}})),
            17);
  AffineExpr moved = std::move(copy);
  EXPECT_EQ(moved, e);
}

TEST(AffineExpr, CancellationRemovesTerm) {
  AffineExpr e = var("i") - var("i");
  EXPECT_TRUE(e.isConstant());
  EXPECT_FALSE(e.involves(sym("i")));
}

TEST(AffineExpr, Substitute) {
  AffineExpr e = var("j").scaled(3) + cst(1);
  AffineExpr r = e.substitute(sym("j"), var("i") + cst(2));
  EXPECT_EQ(r.coeff(sym("i")), 3);
  EXPECT_EQ(r.constant(), 7);
}

TEST(AffineExpr, ExprRoundTrip) {
  AffineExpr e = var("N").scaled(2) - var("i") + cst(5);
  auto back = AffineExpr::fromExpr(e.toExpr());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, e);
}

TEST(AffineExpr, FromExprRejectsQuadratic) {
  Expr q = Expr::param("N") * Expr::param("N");
  EXPECT_FALSE(AffineExpr::fromExpr(q).has_value());
}

TEST(AffineConstraint, NormalizationLT) {
  // i < N  ->  N - i - 1 >= 0
  auto cs = AffineConstraint::make(var("i"), CmpRel::LT, var("N"));
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].holds(at({{"i", 4}, {"N", 5}})), true);
  EXPECT_EQ(cs[0].holds(at({{"i", 5}, {"N", 5}})), false);
}

TEST(AffineConstraint, EqYieldsTwoConstraints) {
  auto cs = AffineConstraint::make(var("i"), CmpRel::EQ, cst(3));
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].holds(at({{"i", 3}})), true);
  EXPECT_EQ(cs[1].holds(at({{"i", 3}})), true);
  EXPECT_TRUE(cs[0].holds(at({{"i", 4}})) == false ||
              cs[1].holds(at({{"i", 4}})) == false);
}

TEST(Congruence, HoldsAndNegation) {
  Congruence c{var("j"), 4, false};
  EXPECT_EQ(c.holds(at({{"j", 8}})), true);
  EXPECT_EQ(c.holds(at({{"j", 9}})), false);
  c.negated = true;
  EXPECT_EQ(c.holds(at({{"j", 9}})), true);
}

// --------------------------------------------------------- FourierMotzkin

TEST(FourierMotzkin, DetectsEmptySystem) {
  // i >= 5 and i <= 3 is empty.
  ConstraintSystem sys;
  sys.add(AffineConstraint::make(var("i"), CmpRel::GE, cst(5)));
  sys.add(AffineConstraint::make(var("i"), CmpRel::LE, cst(3)));
  EXPECT_TRUE(sys.isRationallyEmpty());
}

TEST(FourierMotzkin, FeasibleSystemNotEmpty) {
  ConstraintSystem sys;
  sys.add(AffineConstraint::make(var("i"), CmpRel::GE, cst(1)));
  sys.add(AffineConstraint::make(var("i"), CmpRel::LE, cst(4)));
  sys.add(AffineConstraint::make(var("j"), CmpRel::GE, var("i") + cst(1)));
  sys.add(AffineConstraint::make(var("j"), CmpRel::LE, cst(6)));
  EXPECT_FALSE(sys.isRationallyEmpty());
}

TEST(FourierMotzkin, EliminationPropagatesTransitiveBounds) {
  // j >= i+1, j <= 6; eliminating j leaves i <= 5.
  ConstraintSystem sys;
  sys.add(AffineConstraint::make(var("j"), CmpRel::GE, var("i") + cst(1)));
  sys.add(AffineConstraint::make(var("j"), CmpRel::LE, cst(6)));
  ConstraintSystem out = sys.eliminate(sym("j"));
  auto bounds = out.integerBounds(sym("i"), {});
  ASSERT_FALSE(bounds.has_value()); // i has no lower bound
  // Add one and check the box.
  out.add(AffineConstraint::make(var("i"), CmpRel::GE, cst(1)));
  bounds = out.integerBounds(sym("i"), {});
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->first, 1);
  EXPECT_EQ(bounds->second, 5);
}

TEST(FourierMotzkin, IntegerBoundsWithNonUnitCoefficients) {
  // 2i >= 3 -> i >= 2;  3i <= 10 -> i <= 3
  ConstraintSystem sys;
  sys.add(AffineConstraint{var("i").scaled(2) - cst(3)});
  sys.add(AffineConstraint{cst(10) - var("i").scaled(3)});
  auto bounds = sys.integerBounds(sym("i"), {});
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->first, 2);
  EXPECT_EQ(bounds->second, 3);
}

TEST(FourierMotzkin, SubstitutedFixesVariable) {
  ConstraintSystem sys;
  sys.add(AffineConstraint::make(var("j"), CmpRel::GE, var("i") + cst(1)));
  sys.add(AffineConstraint::make(var("j"), CmpRel::LE, cst(6)));
  ConstraintSystem fixed = sys.substituted(sym("i"), 4);
  auto bounds = fixed.integerBounds(sym("j"), {});
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->first, 5);
  EXPECT_EQ(bounds->second, 6);
}

// ----------------------------------------------------------------- Counting

IterationDomain paperListing2() {
  // for (i = 1; i <= 4; i++) for (j = i+1; j <= 6; j++)
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(1), cst(4)));
  d.levels.push_back(LoopLevel::make(sym("j"), var("i") + cst(1), cst(6)));
  return d;
}

TEST(Counting, BasicLoopListing1) {
  // for (i = 0; i < 10; i++) -> 10 iterations
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(0), cst(9)));
  CountResult r = countIterations(d);
  EXPECT_TRUE(r.count.isIntConst(10));
  EXPECT_TRUE(r.exact);
}

TEST(Counting, TriangularNestListing2) {
  CountResult r = countIterations(paperListing2());
  EXPECT_TRUE(r.count.isIntConst(14)) << r.count.str();
}

TEST(Counting, IfConstraintListing4ShrinksDomain) {
  // Listing 4: same nest + if (j > 4). Fig. 4(b): constraint shrinks the
  // polyhedron. Points with j in {5,6}: i=1: j=5,6; i=2: 5,6; i=3: 5,6;
  // i=4: 5,6 -> 8.
  IterationDomain d = paperListing2();
  auto guard = AffineConstraint::make(var("j"), CmpRel::GT, cst(4));
  CountResult r = countIterations(d.withGuard(guard[0]));
  EXPECT_TRUE(r.count.isIntConst(8)) << r.count.str();
  // And it is smaller than the unconstrained count, as the paper notes.
  EXPECT_LT(*r.count.constValue(),
            *countIterations(paperListing2()).count.constValue());
}

TEST(Counting, ModuloConstraintListing5ComplementRule) {
  // Listing 5: if (j % 4 != 0) -> holes in the polyhedron (Fig. 4c).
  // Total 14; j==4 points: i=1,j=4; i=2,j=4; i=3,j=4 -> 3; true branch 11.
  IterationDomain d = paperListing2();
  CountResult r =
      countIterations(d.withCongruence(Congruence{var("j"), 4, true}));
  EXPECT_TRUE(r.count.isIntConst(11)) << r.count.str();
  // false branch (j % 4 == 0)
  CountResult rf =
      countIterations(d.withCongruence(Congruence{var("j"), 4, false}));
  EXPECT_TRUE(rf.count.isIntConst(3)) << rf.count.str();
}

TEST(Counting, ParametricRectangleClosedForm) {
  // for (i = 0; i < N; i++) for (j = 0; j < M; j++) -> N*M
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(0), var("N") - cst(1)));
  d.levels.push_back(LoopLevel::make(sym("j"), cst(0), var("M") - cst(1)));
  CountResult r = countIterations(d);
  EXPECT_EQ(r.method, CountMethod::ClosedForm);
  EXPECT_EQ(r.count.evaluate({{"N", 7}, {"M", 11}}), 77);
  EXPECT_EQ(r.count.evaluate({{"N", 1000}, {"M", 1000}}), 1000000);
}

TEST(Counting, ParametricTriangleClosedForm) {
  // for (i = 1; i <= N; i++) for (j = i; j <= N; j++) -> N(N+1)/2
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(1), var("N")));
  d.levels.push_back(LoopLevel::make(sym("j"), var("i"), var("N")));
  CountResult r = countIterations(d);
  EXPECT_EQ(r.method, CountMethod::ClosedForm);
  EXPECT_EQ(r.count.evaluate({{"N", 100}}), 5050);
}

TEST(Counting, ParametricCongruenceUsesFloorForm) {
  // for (j = 1; j <= N; j++) if (j % 4 == 0) -> floor(N/4)
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("j"), cst(1), var("N")));
  CountResult r =
      countIterations(d.withCongruence(Congruence{var("j"), 4, false}));
  EXPECT_EQ(r.count.evaluate({{"N", 16}}), 4);
  EXPECT_EQ(r.count.evaluate({{"N", 17}}), 4);
  EXPECT_EQ(r.count.evaluate({{"N", 19}}), 4);
  EXPECT_EQ(r.count.evaluate({{"N", 20}}), 5);
}

TEST(Counting, ParametricCongruenceComplement) {
  // if (j % 4 != 0) over j in 1..N -> N - floor(N/4)
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("j"), cst(1), var("N")));
  CountResult r =
      countIterations(d.withCongruence(Congruence{var("j"), 4, true}));
  EXPECT_EQ(r.count.evaluate({{"N", 16}}), 12);
  EXPECT_EQ(r.count.evaluate({{"N", 18}}), 14);
  EXPECT_NE(r.note.find("complement"), std::string::npos);
}

TEST(Counting, StridedInnermostLoop) {
  // for (i = 0; i <= N; i += 4) -> floor(N/4) + 1
  IterationDomain d;
  LoopLevel l = LoopLevel::make(sym("i"), cst(0), var("N"));
  l.step = 4;
  d.levels.push_back(l);
  CountResult r = countIterations(d);
  EXPECT_EQ(r.count.evaluate({{"N", 16}}), 5);
  EXPECT_EQ(r.count.evaluate({{"N", 15}}), 4);
}

TEST(Counting, MinMaxBoundsFallBackToLazySum) {
  // for (i = 1; i <= 4; i++) for (j = max(i+1,3); j <= 6; j++) with an
  // extra upper bound -> multiple bounds on j, parametric in U.
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(1), cst(4)));
  LoopLevel j = LoopLevel::make(sym("j"), var("i") + cst(1), cst(6));
  j.lowerBounds.push_back(cst(3));
  j.upperBounds.push_back(var("U"));
  d.levels.push_back(j);
  CountResult r = countIterations(d);
  EXPECT_EQ(r.method, CountMethod::LazySum);
  // brute force check at U = 5:
  auto brute = enumerateDomain(d, {{"U", 5}});
  ASSERT_TRUE(brute.has_value());
  EXPECT_EQ(r.count.evaluate({{"U", 5}}), *brute);
}

TEST(Counting, EmptyDomainHasCountOne) {
  // Zero levels: counting a statement not inside any loop.
  IterationDomain d;
  CountResult r = countIterations(d);
  EXPECT_TRUE(r.count.isIntConst(1));
}

TEST(Counting, MissingBoundsRequestsAnnotation) {
  IterationDomain d;
  LoopLevel l;
  l.var = sym("i");
  l.upperBounds.push_back(cst(5)); // no lower bound
  d.levels.push_back(l);
  CountResult r = countIterations(d);
  EXPECT_TRUE(r.requiresAnnotation);
}

TEST(Counting, ParameterOnlyGuardFlaggedInexact) {
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(1), var("N")));
  auto guard = AffineConstraint::make(var("P"), CmpRel::GT, cst(10));
  CountResult r = countIterations(d.withGuard(guard[0]));
  EXPECT_FALSE(r.exact);
  EXPECT_NE(r.note.find("annotation"), std::string::npos);
}

TEST(Counting, GuardOnOuterVariableFolds) {
  // for i in 1..N, for j in 1..N, if (i >= 3): count = (N-2)*N for N >= 2.
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(1), var("N")));
  d.levels.push_back(LoopLevel::make(sym("j"), cst(1), var("N")));
  auto guard = AffineConstraint::make(var("i"), CmpRel::GE, cst(3));
  CountResult r = countIterations(d.withGuard(guard[0]));
  EXPECT_EQ(r.count.evaluate({{"N", 10}}), 80);
}

// Property sweep: random affine triangular systems, closed form (or lazy
// sum) must match brute-force enumeration on every sampled parameter value.
class CountingProperty : public ::testing::TestWithParam<int> {};

TEST_P(CountingProperty, MatchesBruteForceOnRandomDomains) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> small(0, 4);
  std::uniform_int_distribution<int> bound(4, 12);

  for (int trial = 0; trial < 40; ++trial) {
    IterationDomain d;
    int depth = 1 + small(rng) % 3;
    for (int lvl = 0; lvl < depth; ++lvl) {
      std::string v = "v" + std::to_string(lvl);
      AffineExpr lo = cst(small(rng));
      AffineExpr hi = cst(bound(rng));
      // Triangular dependence on the previous variable sometimes.
      if (lvl > 0 && small(rng) % 2 == 0)
        lo = var("v" + std::to_string(lvl - 1)) + cst(small(rng) % 2);
      // Parametric upper bound sometimes.
      bool parametric = small(rng) % 2 == 0;
      if (parametric)
        hi = var("N") + cst(small(rng));
      d.levels.push_back(LoopLevel::make(sym(v), lo, hi));
    }
    CountResult r = countIterations(d);
    Env env{{"N", 9}};
    auto brute = enumerateDomain(d, env);
    ASSERT_TRUE(brute.has_value());
    auto symbolicCount = r.count.evaluate(env);
    ASSERT_TRUE(symbolicCount.has_value()) << d.str();
    // The closed form assumes non-degenerate ranges; brute force clamps.
    // Only compare when the domain is non-degenerate at this binding.
    if (*brute > 0) {
      EXPECT_EQ(*symbolicCount, *brute)
          << d.str() << " via " << toString(r.method);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountingProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Counting, EnumerationStopsAtInt64Max) {
  // The walk must stop when the next step would pass hi: stepping past
  // INT64_MAX wraps and runs the walk to its point budget.
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> ranges[] = {{kMax - 1, 1},
                                                          {kMax - 7, 4}};
  for (const auto &[lo, step] : ranges) {
    IterationDomain d;
    d.levels.push_back(LoopLevel::make(sym("i"), cst(lo), cst(kMax), step));
    CountResult r = countIterations(d);
    EXPECT_EQ(r.method, CountMethod::Enumeration) << d.str();
    EXPECT_TRUE(r.count.isIntConst(2)) << d.str() << ": " << r.count.str();
  }
}

TEST(Counting, OverflowingClosedFormFallsBackToLazySum) {
  // N * MAX * MAX overflows the closed form's coefficients; the lazy sums
  // still count, and nothing throws.
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(0), cst(kMax - 1)));
  d.levels.push_back(LoopLevel::make(sym("j"), cst(0), cst(kMax - 1)));
  d.levels.push_back(LoopLevel::make(sym("k"), cst(0), var("N") - cst(1)));
  CountResult r = countIterations(d);
  EXPECT_FALSE(r.requiresAnnotation) << r.note;
  EXPECT_EQ(r.method, CountMethod::LazySum);
  EXPECT_EQ(r.count.kind(), symbolic::ExprKind::Sum);
}

// ------------------------------------------------------------ name order

TEST(SymbolOrder, TextUsesNameOrderWhateverTheMintOrder) {
  ExprInterner interner;
  ExprInterner::Scope scope(interner);
  // Ids follow mint order: z before a.
  const Symbol z = sym("z");
  const Symbol a = sym("a");
  ASSERT_LT(z, a);
  AffineExpr e = AffineExpr::variable(z, 2) + AffineExpr::variable(a) + cst(1);
  EXPECT_EQ(e.str(), "a + 2*z + 1");

  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(0), e));
  EXPECT_EQ(d.str(), "for i in [0 .. a + 2*z + 1]; ");

  auto guard = AffineConstraint::make(var("z"), CmpRel::GT, var("a"));
  CountResult r = countIterations(d.withGuard(guard[0]));
  EXPECT_EQ(r.note, "guard '-1*a + z + -1 >= 0' depends only on parameters; "
                    "treated as true (annotation recommended)");

  // Fourier-Motzkin eliminates in name order too.
  ConstraintSystem sys;
  sys.add(guard[0]);
  EXPECT_EQ(sys.variables(), (std::vector<Symbol>{a, z}));
}

TEST(Counting, CongruentRangeHelper) {
  // v in [1, 20], v ≡ 3 (mod 5): {3, 8, 13, 18} -> 4
  Expr c = countCongruentInRange(Expr::intConst(1), Expr::intConst(20),
                                 Expr::intConst(3), 5);
  EXPECT_TRUE(c.isIntConst(4));
}

} // namespace
} // namespace mira::polyhedral
