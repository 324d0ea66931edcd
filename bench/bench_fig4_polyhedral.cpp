// Fig. 4 — Polyhedral models of the paper's listings.
//
// (a) the triangular double nest (Listing 2) has 14 lattice points;
// (b) the if constraint j > 4 (Listing 4) shrinks the polyhedron to 8;
// (c) the congruence j % 4 != 0 (Listing 5) breaks convexity and is
//     counted by the complement rule: 14 - 3 = 11;
// (d) min/max bounds (Listing 3) are not polyhedral: counting requires a
//     user annotation.
// Each count is verified three ways: symbolic counter, brute-force
// enumeration, and actual execution of the compiled listing.
#include "bench_util.h"

#include "polyhedral/counting.h"
#include "symbolic/interner.h"

namespace {

using namespace mira;
using namespace mira::polyhedral;

Symbol sym(const char *n) { return symbolic::ExprInterner::current().symbol(n); }
AffineExpr var(const char *n) { return AffineExpr::variable(sym(n)); }
AffineExpr cst(std::int64_t v) { return AffineExpr(v); }

IterationDomain listing2Domain() {
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(1), cst(4)));
  d.levels.push_back(LoopLevel::make(sym("j"), var("i") + cst(1), cst(6)));
  return d;
}

void printFig4() {
  auto &a = bench::analyzeCached(workloads::listingsSource(), "listings.mc");
  bench::printHeader(
      "Fig. 4: Polyhedral model for the double-nested loop listings\n"
      "columns: symbolic count / brute-force enumeration / executed");

  auto runListing = [&](const char *fn) {
    auto r = core::simulate(*a.program->get(), fn, {});
    return r.ok ? r.returnValue.i : -1;
  };

  {
    IterationDomain d = listing2Domain();
    auto res = countIterations(d);
    auto brute = enumerateDomain(d, {});
    std::printf("(a) Listing 2 (triangular nest)        : %s / %lld / %lld\n",
                res.count.str().c_str(),
                static_cast<long long>(brute.value_or(-1)),
                static_cast<long long>(runListing("listing2")));
  }
  {
    IterationDomain d = listing2Domain();
    auto guard = AffineConstraint::make(var("j"), CmpRel::GT, cst(4));
    d = d.withGuard(guard[0]);
    auto res = countIterations(d);
    auto brute = enumerateDomain(d, {});
    std::printf("(b) Listing 4 (if j > 4 constraint)    : %s / %lld / %lld\n",
                res.count.str().c_str(),
                static_cast<long long>(brute.value_or(-1)),
                static_cast<long long>(runListing("listing4")));
  }
  {
    IterationDomain d =
        listing2Domain().withCongruence(Congruence{var("j"), 4, true});
    auto res = countIterations(d);
    auto brute = enumerateDomain(d, {});
    std::printf("(c) Listing 5 (if j %% 4 != 0, complement rule): %s / %lld "
                "/ %lld\n",
                res.count.str().c_str(),
                static_cast<long long>(brute.value_or(-1)),
                static_cast<long long>(runListing("listing5")));
    std::printf("    complement: count(loop)=14, count(j %% 4 == 0)=%s\n",
                countIterations(listing2Domain().withCongruence(
                                    Congruence{var("j"), 4, false}))
                    .count.str()
                    .c_str());
  }
  {
    // (d) Listing 3: min/max bounds — not convex, annotation required.
    const auto *fn = a.model->find("listing3");
    std::printf("(d) Listing 3 (min/max bounds)         : requires "
                "annotation -> parameters jlo/jhi\n");
    if (fn)
      for (const auto &note : fn->notes)
        std::printf("      note: %s\n", note.c_str());
  }

  // Parametric versions: the closed forms Mira embeds in models.
  bench::printHeader("Parametric closed forms (model expressions)");
  {
    IterationDomain d;
    d.levels.push_back(LoopLevel::make(sym("i"), cst(0), var("N") - cst(1)));
    d.levels.push_back(LoopLevel::make(sym("j"), cst(0), var("M") - cst(1)));
    std::printf("rectangle  N x M          -> %s\n",
                countIterations(d).count.str().c_str());
  }
  {
    IterationDomain d;
    d.levels.push_back(LoopLevel::make(sym("i"), cst(1), var("N")));
    d.levels.push_back(LoopLevel::make(sym("j"), var("i"), var("N")));
    std::printf("triangle   i<=j<=N        -> %s\n",
                countIterations(d).count.str().c_str());
  }
  {
    IterationDomain d;
    d.levels.push_back(LoopLevel::make(sym("j"), cst(1), var("N")));
    d = d.withCongruence(Congruence{var("j"), 4, true});
    std::printf("complement j %% 4 != 0     -> %s\n",
                countIterations(d).count.str().c_str());
  }
  bench::printRule();
}

void BM_SymbolicCounting(benchmark::State &state) {
  IterationDomain d = listing2Domain();
  for (auto _ : state) {
    auto res = countIterations(d);
    benchmark::DoNotOptimize(res.count);
  }
}
BENCHMARK(BM_SymbolicCounting);

void BM_ParametricClosedForm(benchmark::State &state) {
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(1), var("N")));
  d.levels.push_back(LoopLevel::make(sym("j"), var("i"), var("N")));
  for (auto _ : state) {
    auto res = countIterations(d);
    benchmark::DoNotOptimize(res.count);
  }
}
BENCHMARK(BM_ParametricClosedForm);

void BM_ClosedFormEvaluation(benchmark::State &state) {
  IterationDomain d;
  d.levels.push_back(LoopLevel::make(sym("i"), cst(1), var("N")));
  d.levels.push_back(LoopLevel::make(sym("j"), var("i"), var("N")));
  auto res = countIterations(d);
  symbolic::Env env{{"N", 1000000}};
  for (auto _ : state) {
    auto v = res.count.evaluate(env);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ClosedFormEvaluation);

} // namespace

int main(int argc, char **argv) {
  printFig4();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
