// Workload-level validation (the paper's Sec. IV methodology at test
// sizes): STREAM, DGEMM and miniFE-CG compile, run, and the static model
// tracks the simulator's FPI within the paper's error envelope. Also
// validates fast-forward == exact on every workload, which licenses the
// benches to use fast-forward at paper-scale sizes.
#include <gtest/gtest.h>

#include "core/artifacts.h"
#include "core/mira.h"
#include "frontend/parser.h"
#include "sema/ast_stats.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace mira {
namespace {

using core::Artifacts;
using core::relativeError;
using sim::SimOptions;
using sim::Value;

Artifacts analyze(const std::string &src, const char *name) {
  DiagnosticEngine diags;
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = src;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                   core::kArtifactProgram;
  Artifacts artifacts = core::analyze(spec, diags);
  EXPECT_TRUE(artifacts.ok) << diags.str();
  return artifacts;
}

sim::SimResult run(const Artifacts &a, const std::string &fn,
                   const std::vector<Value> &args, bool ff) {
  SimOptions options;
  options.fastForward = ff;
  return core::simulate(*a.program->get(), fn, args, options);
}

void expectCountersEqual(const sim::SimResult &a, const sim::SimResult &b) {
  EXPECT_EQ(a.total.totalInstructions, b.total.totalInstructions);
  EXPECT_EQ(a.total.fpInstructions, b.total.fpInstructions);
  EXPECT_EQ(a.total.flops, b.total.flops);
  for (std::size_t c = 0; c < isa::kNumCategories; ++c)
    EXPECT_EQ(a.total.categories[c], b.total.categories[c]) << "cat " << c;
}

// ------------------------------------------------------------------ STREAM

TEST(Stream, CompilesAndKernelsVectorize) {
  auto a = analyze(workloads::streamSource(), "stream.mc");
  // All four kernels plus init and checksum must be vectorized: each has
  // a main (step 2) and remainder (step 1) machine loop.
  for (const char *fn : {"copy_kernel", "scale_kernel", "add_kernel",
                         "triad_kernel", "checksum", "stream_init"}) {
    const auto *bin = a.program->get()->binaryAst.find(fn);
    ASSERT_NE(bin, nullptr) << fn;
    EXPECT_GE(bin->loops.size(), 2u) << fn << " not vectorized";
  }
}

TEST(Stream, FastForwardMatchesExact) {
  auto a = analyze(workloads::streamSource(), "stream.mc");
  for (int n : {1, 2, 17, 100}) {
    auto exact = run(a, "stream_main", {Value::ofInt(n), Value::ofInt(3)},
                     false);
    auto ff = run(a, "stream_main", {Value::ofInt(n), Value::ofInt(3)}, true);
    ASSERT_TRUE(exact.ok) << exact.error;
    ASSERT_TRUE(ff.ok) << ff.error;
    expectCountersEqual(exact, ff);
  }
}

TEST(Stream, StaticFPITracksDynamicWithinPaperEnvelope) {
  auto a = analyze(workloads::streamSource(), "stream.mc");
  for (int n : {100, 1000, 4096}) {
    auto staticFPI =
        a.staticFPI("stream_main", {{"n", n}, {"ntimes", 10}});
    ASSERT_TRUE(staticFPI.has_value());
    auto r = run(a, "stream_main", {Value::ofInt(n), Value::ofInt(10)}, true);
    ASSERT_TRUE(r.ok) << r.error;
    double dynamicFPI = r.fpiOf("stream_main");
    // Paper Table III errors: <= 0.47%.
    EXPECT_LT(relativeError(*staticFPI, dynamicFPI), 0.005)
        << "n=" << n << " static=" << *staticFPI << " dyn=" << dynamicFPI;
    // FPI must scale with the STREAM work: 4 FP ops per element per rep.
    EXPECT_GT(dynamicFPI, 4.0 * n * 10 / 2 * 0.9);
  }
}

TEST(Stream, ChecksumValueIsCorrectInExactMode) {
  auto a = analyze(workloads::streamSource(), "stream.mc");
  auto r = run(a, "stream_main", {Value::ofInt(64), Value::ofInt(2)}, false);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.printed.size(), 1u);
  // After k reps: a = b + 3c where the recurrence converges to the STREAM
  // triad fixed pattern; just check it is finite and positive.
  EXPECT_GT(r.printed[0], 0.0);
}

// ------------------------------------------------------------------ DGEMM

TEST(Dgemm, InnerLoopStaysScalarOuterStructureHolds) {
  auto a = analyze(workloads::dgemmSource(), "dgemm.mc");
  const auto *bin = a.program->get()->binaryAst.find("dgemm_kernel");
  ASSERT_NE(bin, nullptr);
  // Strided b[k*n+j] access blocks vectorization: every machine loop in
  // the kernel is scalar (step 1).
  for (const auto &loop : bin->loops)
    EXPECT_LE(loop.step, 1) << "dgemm kernel loop unexpectedly vectorized";
}

TEST(Dgemm, FastForwardMatchesExact) {
  auto a = analyze(workloads::dgemmSource(), "dgemm.mc");
  for (int n : {1, 2, 5, 16}) {
    auto exact = run(a, "dgemm_main", {Value::ofInt(n)}, false);
    auto ff = run(a, "dgemm_main", {Value::ofInt(n)}, true);
    ASSERT_TRUE(exact.ok && ff.ok) << exact.error << ff.error;
    expectCountersEqual(exact, ff);
  }
}

TEST(Dgemm, StaticFPITracksDynamic) {
  auto a = analyze(workloads::dgemmSource(), "dgemm.mc");
  for (int n : {8, 32, 64}) {
    // 'total' is a local (n*n) the static analysis cannot resolve; it is
    // a user-supplied model parameter, like the paper's y_16.
    auto staticFPI = a.staticFPI(
        "dgemm_main", {{"n", n}, {"total", static_cast<std::int64_t>(n) * n}});
    ASSERT_TRUE(staticFPI.has_value());
    auto r = run(a, "dgemm_main", {Value::ofInt(n)}, true);
    ASSERT_TRUE(r.ok) << r.error;
    double dynamicFPI = r.fpiOf("dgemm_main");
    // Paper Table IV errors: <= 0.05%.
    EXPECT_LT(relativeError(*staticFPI, dynamicFPI), 0.01)
        << "n=" << n << " static=" << *staticFPI << " dyn=" << dynamicFPI;
    // FPI is dominated by 2n^3 multiply-adds.
    EXPECT_GT(dynamicFPI, 2.0 * n * n * n * 0.95);
  }
}

// ----------------------------------------------------------------- miniFE

TEST(MiniFE, CompilesWithMethodCallChain) {
  auto a = analyze(workloads::minifeSource(), "minife.mc");
  EXPECT_NE(a.model->find("MatVec::operator()"), nullptr);
  EXPECT_NE(a.model->find("cg_solve"), nullptr);
  EXPECT_NE(a.model->find("waxpby"), nullptr);
  EXPECT_NE(a.model->find("dot"), nullptr);
  // Model names follow the paper's naming scheme.
  EXPECT_EQ(a.model->find("MatVec::operator()")->modelName,
            "MatVec_operator_call_2");
  EXPECT_EQ(a.model->find("waxpby")->modelName, "waxpby_6");
}

TEST(MiniFE, SolverConvergesOnSmallGrid) {
  auto a = analyze(workloads::minifeSource(), "minife.mc");
  auto r = run(a, "cg_solve",
               {Value::ofInt(6), Value::ofInt(6), Value::ofInt(6),
                Value::ofInt(60)},
               false);
  ASSERT_TRUE(r.ok) << r.error;
  // CG on the SPD 7-point Laplacian reduces the residual norm below the
  // initial one (exactness not required at fixed iterations).
  EXPECT_LT(r.returnValue.f, 6.0 * 6.0 * 6.0);
  EXPECT_GE(r.returnValue.f, 0.0);
}

TEST(MiniFE, FastForwardMatchesExact) {
  auto a = analyze(workloads::minifeSource(), "minife.mc");
  for (int s : {2, 4, 6}) {
    auto exact = run(a, "minife_main",
                     {Value::ofInt(s), Value::ofInt(s), Value::ofInt(s),
                      Value::ofInt(5)},
                     false);
    auto ff = run(a, "minife_main",
                  {Value::ofInt(s), Value::ofInt(s), Value::ofInt(s),
                   Value::ofInt(5)},
                  true);
    ASSERT_TRUE(exact.ok && ff.ok) << exact.error << ff.error;
    expectCountersEqual(exact, ff);
  }
}

model::Env minifeEnv(int nx, int ny, int nz, int iters) {
  // The user-supplied model parameters (paper Sec. III-C: sample values
  // provided at evaluation time): nrows is the grid size, nnz_row the
  // stencil size annotation.
  return {{"nx", nx},       {"ny", ny},   {"nz", nz},
          {"max_iters", iters}, {"nrows", nx * ny * nz}, {"nnz_row", 7}};
}

TEST(MiniFE, StaticFPIWithinPaperEnvelope) {
  auto a = analyze(workloads::minifeSource(), "minife.mc");
  for (int s : {8, 12}) {
    int iters = 20;
    auto staticFPI = a.staticFPI("cg_solve", minifeEnv(s, s, s, iters));
    ASSERT_TRUE(staticFPI.has_value());
    auto r = run(a, "cg_solve",
                 {Value::ofInt(s), Value::ofInt(s), Value::ofInt(s),
                  Value::ofInt(iters)},
                 true);
    ASSERT_TRUE(r.ok) << r.error;
    double dynamicFPI = r.fpiOf("cg_solve");
    // Paper Table V errors reach 3.08%; the nnz_row=7 annotation
    // overestimates boundary rows, so allow a slightly wider envelope at
    // these very small grids (boundary fraction is larger than the
    // paper's 30^3+).
    EXPECT_LT(relativeError(*staticFPI, dynamicFPI), 0.08)
        << "s=" << s << " static=" << *staticFPI << " dyn=" << dynamicFPI;
  }
}

TEST(MiniFE, PerFunctionCountsMatchTableVShape) {
  auto a = analyze(workloads::minifeSource(), "minife.mc");
  int s = 10, iters = 10;
  auto r = run(a, "cg_solve",
               {Value::ofInt(s), Value::ofInt(s), Value::ofInt(s),
                Value::ofInt(iters)},
               true);
  ASSERT_TRUE(r.ok) << r.error;
  // Call counts: 3 waxpby + 2 dot per iteration (+1 initial dot), one
  // matvec per iteration.
  EXPECT_EQ(r.functions.at("waxpby").calls,
            static_cast<std::uint64_t>(3 * iters));
  EXPECT_EQ(r.functions.at("dot").calls,
            static_cast<std::uint64_t>(2 * iters + 1));
  EXPECT_EQ(r.functions.at("MatVec::operator()").calls,
            static_cast<std::uint64_t>(iters));
  // cg_solve dominates (paper: "accounts for the bulk of the FP
  // computations").
  EXPECT_GT(r.fpiOf("cg_solve"), r.fpiOf("waxpby"));
  EXPECT_GT(r.fpiOf("cg_solve"), r.fpiOf("MatVec::operator()"));
  // Static per-function models evaluate too.
  auto env = minifeEnv(s, s, s, iters);
  env["n"] = s * s * s; // waxpby's own parameter when evaluated standalone
  auto waxpbyStatic = a.model->evaluate("waxpby", env);
  ASSERT_TRUE(waxpbyStatic.has_value());
  double waxpbyDynPerCall = r.fpiPerCall("waxpby");
  EXPECT_LT(relativeError(waxpbyStatic->fpInstructions, waxpbyDynPerCall),
            0.01);
}

// ----------------------------------------------------------- Fig.5 model

TEST(Fig5, ModelEvaluatesWithUserParameter) {
  auto a = analyze(workloads::fig5Source(), "fig5.mc");
  // y is the user-supplied bound (the paper's y_16): 16 outer iterations
  // of an inner loop with y iterations; body has 1 mul + 1 add.
  auto counts = a.model->evaluate("A::foo", {{"y", 8}});
  ASSERT_TRUE(counts.has_value());
  auto r = core::simulate(*a.program->get(), "fig5_main", {Value::ofInt(64)});
  ASSERT_TRUE(r.ok) << r.error;
  double dynamicFPI = r.fpiOf("A::foo");
  EXPECT_LT(relativeError(counts->fpInstructions, dynamicFPI), 0.02)
      << "static=" << counts->fpInstructions << " dyn=" << dynamicFPI;
}

// -------------------------------------------------------------- Listings

TEST(Listings, AllListingFunctionsReturnPaperCounts) {
  auto a = analyze(workloads::listingsSource(), "listings.mc");
  auto r1 = core::simulate(*a.program->get(), "listing1", {});
  EXPECT_EQ(r1.returnValue.i, 10);
  auto r2 = core::simulate(*a.program->get(), "listing2", {});
  EXPECT_EQ(r2.returnValue.i, 14); // paper Fig. 4(a)
  auto r4 = core::simulate(*a.program->get(), "listing4", {});
  EXPECT_EQ(r4.returnValue.i, 8); // paper Fig. 4(b)
  auto r5 = core::simulate(*a.program->get(), "listing5", {});
  EXPECT_EQ(r5.returnValue.i, 11); // paper Fig. 4(c): 14 - 3
}

TEST(Listings, StaticCountsMatchDynamicForListings) {
  auto a = analyze(workloads::listingsSource(), "listings.mc");
  for (const char *fn : {"listing1", "listing2", "listing4", "listing5"}) {
    auto staticFPI = a.staticFPI(fn, {});
    ASSERT_TRUE(staticFPI.has_value()) << fn;
    auto r = core::simulate(*a.program->get(), fn, {});
    ASSERT_TRUE(r.ok);
    // These integer listings have no FP; compare the integer-arithmetic
    // category exactly (the branch-glue JMPs of if-diamonds are counted
    // conservatively by the static side, so raw totals may differ by a
    // few control-transfer instructions — see DESIGN.md limitations).
    auto counts = a.model->evaluate(fn, {});
    ASSERT_TRUE(counts.has_value());
    auto categories = counts->categories(arch::haswellDescription());
    double staticArith = categories[static_cast<std::size_t>(
        isa::InstrCategory::IntArith)];
    double dynArith =
        static_cast<double>(r.functions.at(fn).inclusive.categories
                                [static_cast<std::size_t>(
                                    isa::InstrCategory::IntArith)]);
    EXPECT_NEAR(staticArith, dynArith, 0.01) << fn;
    EXPECT_NEAR(counts->totalInstructions,
                static_cast<double>(
                    r.functions.at(fn).inclusive.totalInstructions),
                0.06 * counts->totalInstructions)
        << fn;
  }
}

TEST(Listings, Listing3NeedsAndUsesAnnotation) {
  auto a = analyze(workloads::listingsSource(), "listings.mc");
  const auto *fn = a.model->find("listing3");
  ASSERT_NE(fn, nullptr);
  // min/max bounds are not statically countable; the annotation completes
  // the model (notes record the substitution).
  bool noted = false;
  for (const auto &note : fn->notes)
    if (note.find("lp_init") != std::string::npos ||
        note.find("annotated") != std::string::npos)
      noted = true;
  EXPECT_TRUE(noted);
  auto params = a.model->requiredParameters("listing3");
  EXPECT_TRUE(params.count("jlo"));
  EXPECT_TRUE(params.count("jhi"));
  // Supplying the annotation parameters makes the model evaluable.
  auto counts = a.model->evaluate("listing3", {{"jlo", 1}, {"jhi", 6}});
  EXPECT_TRUE(counts.has_value());
}

// -------------------------------------------------------- coverage suite

TEST(CoverageSuite, AllKernelsCompile) {
  for (const auto &kernel : workloads::coverageSuite()) {
    DiagnosticEngine diags;
    core::AnalysisSpec spec;
    spec.name = kernel.name + ".mc";
    spec.source = kernel.source;
    spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics;
    core::Artifacts artifacts = core::analyze(spec, diags);
    EXPECT_TRUE(artifacts.ok) << kernel.name << ": " << diags.str();
  }
}

TEST(CoverageSuite, LoopCoverageIsHPCLike) {
  // Table I's point: HPC codes keep the large majority of statements in
  // loops. Our stand-ins must reproduce that profile.
  for (const auto &kernel : workloads::coverageSuite()) {
    DiagnosticEngine diags;
    auto unit =
        frontend::Parser::parse(kernel.source, kernel.name, diags);
    ASSERT_FALSE(diags.hasErrors()) << kernel.name;
    auto cov = sema::computeLoopCoverage(*unit);
    EXPECT_GE(cov.percent(), 60.0) << kernel.name;
    EXPECT_GT(cov.loops, 0u) << kernel.name;
  }
}

} // namespace
} // namespace mira
