// End-to-end pipeline tests: source -> binary -> bridge -> model, checked
// against the simulator (the paper's validation methodology at unit
// scale). The headline invariant throughout: the statically evaluated
// model's FPI count matches the dynamically retired FPI count.
#include <gtest/gtest.h>

#include "core/artifacts.h"
#include "core/mira.h"
#include "driver/batch.h"
#include "workloads/workloads.h"

namespace mira::core {
namespace {

std::string workloadFig5() { return workloads::fig5Source(); }

using sim::Value;

/// Full static pipeline via the artifact API: model + live program.
Artifacts analyzeFull(const std::string &src, const std::string &name,
                      const MiraOptions &options, DiagnosticEngine &diags) {
  AnalysisSpec spec;
  spec.name = name;
  spec.source = src;
  spec.options = options;
  spec.artifacts = kArtifactModel | kArtifactDiagnostics | kArtifactProgram;
  return analyze(spec, diags);
}

Artifacts analyzeOk(const std::string &src) {
  DiagnosticEngine diags;
  MiraOptions options;
  Artifacts result = analyzeFull(src, "pipeline_test.mc", options, diags);
  EXPECT_TRUE(result.ok) << diags.str();
  return result;
}

double simFPI(const Artifacts &analysis, const std::string &fn,
              const std::vector<Value> &args) {
  auto r = simulate(*analysis.program->get(), fn, args);
  EXPECT_TRUE(r.ok) << r.error;
  return r.fpiOf(fn);
}

TEST(Pipeline, BinaryAstHasFunctionsAndLines) {
  auto a = analyzeOk("double f(double x) {\n"
                     "  double y = x * 2.0;\n"
                     "  return y + 1.0;\n"
                     "}");
  const auto *fn = a.program->get()->binaryAst.find("f");
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->instructions.empty());
  // Lines 2 and 3 must be represented in the disassembly.
  auto lines = fn->lineCounts();
  EXPECT_TRUE(lines.count(2));
  EXPECT_TRUE(lines.count(3));
}

TEST(Pipeline, BinaryLoopDiscovery) {
  auto a = analyzeOk("void f(double* v, int n) {\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    v[i] = v[i] * 0.5;\n"
                     "  }\n"
                     "}");
  const auto *fn = a.program->get()->binaryAst.find("f");
  ASSERT_NE(fn, nullptr);
  // Vectorization produces a main loop (step 2) and a remainder (step 1).
  ASSERT_GE(fn->loops.size(), 2u);
  const auto *bridge = a.program->get()->bridge->of("f");
  ASSERT_NE(bridge, nullptr);
  auto binding = bridge->loopsAtLine(2);
  ASSERT_TRUE(binding.isVectorized());
  EXPECT_EQ(binding.mainLoop()->step, 2);
  EXPECT_EQ(binding.remainderLoop()->step, 1);
}

TEST(Pipeline, ScalarLoopStaysScalar) {
  // Integer address arithmetic in the body blocks vectorization (like
  // DGEMM's strided access).
  auto a = analyzeOk("void f(double* v, int n) {\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    v[i * 2] = v[i * 2] + 1.0;\n"
                     "  }\n"
                     "}");
  const auto *bridge = a.program->get()->bridge->of("f");
  auto binding = bridge->loopsAtLine(2);
  ASSERT_FALSE(binding.loops.empty());
  EXPECT_FALSE(binding.isVectorized());
}

// The core validation pattern: static model FPI == simulator FPI.
struct FpiCase {
  const char *name;
  const char *source;
  const char *function;
  std::vector<std::pair<const char *, std::int64_t>> params;
  std::vector<Value> args;
};

class StaticVsDynamic : public ::testing::TestWithParam<int> {};

TEST(Pipeline, SimpleVectorLoopFPIExact) {
  auto a = analyzeOk("void axpy(double* x, double* y, double alpha, int n) {\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    y[i] = y[i] + alpha * x[i];\n"
                     "  }\n"
                     "}\n"
                     "double driver(int n) {\n"
                     "  double x[n];\n"
                     "  double y[n];\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    x[i] = 1.0;\n"
                     "    y[i] = 2.0;\n"
                     "  }\n"
                     "  axpy(x, y, 3.0, n);\n"
                     "  return y[0];\n"
                     "}");
  for (std::int64_t n : {1, 2, 7, 64, 129}) {
    auto staticFPI = a.staticFPI("driver", {{"n", n}});
    ASSERT_TRUE(staticFPI.has_value());
    double dynamicFPI = simFPI(a, "driver", {Value::ofInt(n)});
    EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << "n=" << n;
  }
}

TEST(Pipeline, TriangularNestFPIExact) {
  auto a = analyzeOk("double tri(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    for (int j = i; j < n; j++) {\n"
                     "      acc = acc + 1.0;\n"
                     "    }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  for (std::int64_t n : {1, 3, 10, 31}) {
    auto staticFPI = a.staticFPI("tri", {{"n", n}});
    ASSERT_TRUE(staticFPI.has_value());
    double dynamicFPI = simFPI(a, "tri", {Value::ofInt(n)});
    EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << "n=" << n;
  }
}

TEST(Pipeline, DepthThreeRectangularAndInclusiveNestsFPIExact) {
  // All 8 depth-3 nests whose levels each run `0 .. n-1` or `1 .. n`.
  // Register pressure in the inclusive shapes makes the allocator spill
  // a latch's step constant through a stack slot, and the binary loop
  // must still recover its step for the main/remainder split.
  const char *vars[] = {"i", "j", "k"};
  for (int shape = 0; shape < 8; ++shape) {
    std::string src = "double f(int n) {\n  double acc = 0.0;\n";
    std::string name;
    for (int d = 0; d < 3; ++d) {
      const bool inclusive = shape & (4 >> d);
      const std::string v = vars[d];
      name += inclusive ? 'i' : 'r';
      src += std::string(2 * d + 2, ' ') + "for (int " + v +
             (inclusive ? " = 1; " + v + " <= n; " : " = 0; " + v + " < n; ") +
             v + "++) {\n";
    }
    src += "        acc = acc + 0.5;\n      }\n    }\n  }\n  return acc;\n}\n";
    auto a = analyzeOk(src);
    ASSERT_TRUE(a.ok) << name;
    for (std::int64_t n = 1; n <= 6; ++n) {
      auto staticFPI = a.staticFPI("f", {{"n", n}});
      ASSERT_TRUE(staticFPI.has_value()) << name;
      double dynamicFPI = simFPI(a, "f", {Value::ofInt(n)});
      EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << name << " n=" << n;
    }
  }
}

TEST(Pipeline, BranchInLoopUsesGuardedPolyhedron) {
  // Paper Fig. 4(b): affine guard shrinks the count; the model must be
  // exact, not approximate.
  auto a = analyzeOk("double f(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    if (i >= 4) {\n"
                     "      acc = acc + 2.0;\n"
                     "    }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  for (std::int64_t n : {2, 4, 5, 20}) {
    auto staticFPI = a.staticFPI("f", {{"n", n}});
    ASSERT_TRUE(staticFPI.has_value());
    double dynamicFPI = simFPI(a, "f", {Value::ofInt(n)});
    EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << "n=" << n;
  }
}

TEST(Pipeline, ModuloGuardComplementRule) {
  // Paper Fig. 4(c) / Listing 5: j % 4 != 0 handled by complement.
  auto a = analyzeOk("double f(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int j = 1; j <= n; j++) {\n"
                     "    if (j % 4 != 0) {\n"
                     "      acc = acc + 1.0;\n"
                     "    }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  for (std::int64_t n : {3, 4, 8, 17}) {
    auto staticFPI = a.staticFPI("f", {{"n", n}});
    ASSERT_TRUE(staticFPI.has_value());
    double dynamicFPI = simFPI(a, "f", {Value::ofInt(n)});
    EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << "n=" << n;
  }
}

TEST(Pipeline, ElseBranchCountsComplement) {
  auto a = analyzeOk("double f(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int j = 0; j < n; j++) {\n"
                     "    if (j % 2 == 0) {\n"
                     "      acc = acc + 1.0;\n"
                     "    } else {\n"
                     "      acc = acc + 1.0 + 1.0 * j;\n"
                     "    }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  for (std::int64_t n : {1, 2, 9, 16}) {
    auto staticFPI = a.staticFPI("f", {{"n", n}});
    ASSERT_TRUE(staticFPI.has_value());
    double dynamicFPI = simFPI(a, "f", {Value::ofInt(n)});
    EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << "n=" << n;
  }
}

TEST(Pipeline, FunctionCallsCombineLikeHandleFunctionCall) {
  // Calls inside loops multiply callee metrics by iteration count
  // (paper Sec. III-B5).
  auto a = analyzeOk("double work(double* v, int n) {\n"
                     "  double s = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    s = s + v[i] * v[i];\n"
                     "  }\n"
                     "  return s;\n"
                     "}\n"
                     "double driver(int n, int reps) {\n"
                     "  double v[n];\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    v[i] = 0.5;\n"
                     "  }\n"
                     "  double acc = 0.0;\n"
                     "  for (int r = 0; r < reps; r++) {\n"
                     "    acc = acc + work(v, n);\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  auto staticFPI = a.staticFPI("driver", {{"n", 20}, {"reps", 7}});
  ASSERT_TRUE(staticFPI.has_value());
  double dynamicFPI =
      simFPI(a, "driver", {Value::ofInt(20), Value::ofInt(7)});
  EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI);
}

TEST(Pipeline, MethodLoopOverAFieldFPIExact) {
  // A method's loop whose variable is a field of its class: lowering
  // takes it through the generic for, and the model still counts every
  // instruction the simulator retires.
  auto a = analyzeOk("class A {\n"
                     "public:\n"
                     "  int i;\n"
                     "  double s;\n"
                     "  void m(int n) {\n"
                     "    for (i = 0; i < n; i++) {\n"
                     "      s = s + 1.0;\n"
                     "    }\n"
                     "  }\n"
                     "};\n"
                     "int main_fn(int n) {\n"
                     "  A a;\n"
                     "  a.m(n);\n"
                     "  return 0;\n"
                     "}");
  ASSERT_TRUE(a.ok);
  for (std::int64_t n : {0, 1, 3, 6}) {
    std::string error;
    auto counts = a.model->evaluate("main_fn", {{"n", n}}, &error);
    ASSERT_TRUE(counts.has_value()) << error;
    auto r = simulate(*a.program->get(), "main_fn", {Value::ofInt(n)});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_DOUBLE_EQ(counts->totalInstructions,
                     static_cast<double>(r.total.totalInstructions))
        << "n=" << n;
    EXPECT_DOUBLE_EQ(counts->fpInstructions,
                     static_cast<double>(r.total.fpInstructions))
        << "n=" << n;
  }
}

TEST(Pipeline, MethodCallWithAnnotatedInnerLoop) {
  // The Fig. 5 pattern: annotation parameter surfaces in the model.
  auto a = analyzeOk(workloadFig5());
  const auto *fooModel = a.model->find("A::foo");
  ASSERT_NE(fooModel, nullptr);
  EXPECT_EQ(fooModel->modelName, "A_foo_2");
  auto params = a.model->requiredParameters("A::foo");
  EXPECT_TRUE(params.count("y")) << "annotated bound must be a parameter";
}

TEST(Pipeline, AnnotatedRatioBranch) {
  auto a = analyzeOk("double f(double* v, int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    #pragma @Annotation {ratio:25}\n"
                     "    if (v[i] > 0.5) {\n"
                     "      acc = acc + 1.0;\n"
                     "    }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  const auto *fn = a.model->find("f");
  ASSERT_NE(fn, nullptr);
  // 25% of n iterations contribute the branch body.
  auto counts = a.model->evaluate("f", {{"n", 100}});
  ASSERT_TRUE(counts.has_value());
  // FPI: condition compare is not FPI; body add -> about 25 adds. Loads
  // contribute SSE2 data movement, not FPI. The acc init is folded.
  EXPECT_NEAR(counts->fpInstructions, 25.0, 1.0);
}

TEST(Pipeline, SkipAnnotationRemovesScope) {
  auto a = analyzeOk("double f(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    #pragma @Annotation {skip:yes}\n"
                     "    acc = acc + 1.0;\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  auto counts = a.model->evaluate("f", {{"n", 1000}});
  ASSERT_TRUE(counts.has_value());
  // The skipped statement's FP add is absent from the model.
  EXPECT_LT(counts->fpInstructions, 10.0);
}

TEST(Pipeline, GeneratedPythonModelHasPaperShape) {
  auto a = analyzeOk(workloadFig5());
  std::string py = model::emitPython(*a.model);
  EXPECT_NE(py.find("def A_foo_2("), std::string::npos);
  EXPECT_NE(py.find("def handle_function_call("), std::string::npos);
  EXPECT_NE(py.find("SSE2"), std::string::npos);
  // The annotated parameter appears in the signature.
  EXPECT_NE(py.find("y"), std::string::npos);
}

TEST(Pipeline, OptimizationChangesBinaryNotSemantics) {
  const char *src = "double f(int n) {\n"
                    "  double a[n];\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    a[i] = 2.0 * 3.0;\n" // constant-folded
                    "  }\n"
                    "  return a[0];\n"
                    "}";
  DiagnosticEngine d1, d2;
  MiraOptions opt;
  opt.compile.compiler.optimize = true;
  auto optimized = analyzeFull(src, "t.mc", opt, d1);
  opt.compile.compiler.optimize = false;
  opt.compile.compiler.vectorize = false;
  auto plain = analyzeFull(src, "t.mc", opt, d2);
  ASSERT_TRUE(optimized.ok && plain.ok);
  auto r1 = simulate(*optimized.program->get(), "f", {Value::ofInt(8)});
  auto r2 = simulate(*plain.program->get(), "f", {Value::ofInt(8)});
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_DOUBLE_EQ(r1.returnValue.f, 6.0);
  EXPECT_DOUBLE_EQ(r2.returnValue.f, 6.0);
  // The optimized binary retires fewer instructions.
  EXPECT_LT(r1.total.totalInstructions, r2.total.totalInstructions);
}

TEST(Pipeline, ExternCallsAreTheResidualError) {
  // Static model cannot see into mc_print; the simulator charges it.
  auto a = analyzeOk("double f(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    acc = acc + 1.0;\n"
                     "  }\n"
                     "  mc_print(acc);\n"
                     "  return acc;\n"
                     "}");
  auto staticFPI = a.staticFPI("f", {{"n", 1000}});
  ASSERT_TRUE(staticFPI.has_value());
  auto r = simulate(*a.program->get(), "f", {Value::ofInt(1000)});
  ASSERT_TRUE(r.ok);
  double dynamicFPI = r.fpiOf("f");
  EXPECT_LT(*staticFPI, dynamicFPI); // missing library FPI
  EXPECT_LT(relativeError(*staticFPI, dynamicFPI), 0.02); // but small
  const auto *fn = a.model->find("f");
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->exact);
}

// INT64_MIN / -1 in an affine position: the guard and the call argument
// are not affine (the quotient has no int64 value), so they take the
// existing not-analyzable / not-resolvable paths instead of trapping.
TEST(Pipeline, IntMinByMinusOneIsNotAffine) {
  auto guard = analyzeOk("void f(double* a, int n) {\n"
                         "  for (int i = 0; i < n; i++) {\n"
                         "    if (i < (-9223372036854775807 - 1 + 0 * n) / -1)\n"
                         "      a[i] = a[i] * 2.0;\n"
                         "  }\n"
                         "}");
  ASSERT_TRUE(guard.ok);
  const auto *f = guard.model->find("f");
  ASSERT_NE(f, nullptr);
  ASSERT_FALSE(f->notes.empty());
  EXPECT_NE(f->notes[0].find("branch at line 3 is not statically analyzable"),
            std::string::npos)
      << f->notes[0];

  auto call = analyzeOk("int k(int m) { return m; }\n"
                        "int f() { return k((-9223372036854775807 - 1) / -1); }");
  ASSERT_TRUE(call.ok);
  const auto *caller = call.model->find("f");
  ASSERT_NE(caller, nullptr);
  ASSERT_FALSE(caller->notes.empty());
  EXPECT_NE(caller->notes[0].find("is not statically resolvable"),
            std::string::npos)
      << caller->notes[0];
}

// Affine and polynomial arithmetic that overflows int64 takes the paths
// that already exist ("not affine", the lazy-sum count) instead of
// throwing out of core::analyze, so each analysis succeeds and is cached.
TEST(Pipeline, Int64OverflowInAffineArithmeticIsNotAnError) {
  const char *const sources[] = {
      "void f(double* a, int n) {\n"
      "  for (int i = 0; i < -9223372036854775807 - 1; i++)\n"
      "    a[i] = a[i] * 2.0;\n"
      "}",
      "void f(double* a, int n) {\n"
      "  for (int i = 0; i < 4611686018427387904 * 4 + n; i++)\n"
      "    a[i] = a[i] * 2.0;\n"
      "}",
      "void f(double* a, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < -9223372036854775807 - 1 + n)\n"
      "      a[i] = a[i] * 2.0;\n"
      "  }\n"
      "}",
      "void f(double* a, int n) {\n"
      "  for (int j = -9223372036854775807 - 1; j < n; j++) a[j] = a[j] * 2.0;\n"
      "}",
      "void f(double* a, int n) {\n"
      "  for (int i = 0; i < 9223372036854775807; i++)\n"
      "    for (int j = 0; j < 9223372036854775807; j++)\n"
      "      for (int k = 0; k < n; k++)\n"
      "        a[k] = a[k] * 2.0;\n"
      "}",
  };
  std::vector<AnalysisSpec> specs;
  for (const char *source : sources) {
    AnalysisSpec spec;
    spec.name = "overflow" + std::to_string(specs.size()) + ".mc";
    spec.source = source;
    spec.artifacts = kArtifactModel | kArtifactDiagnostics;
    Artifacts direct;
    EXPECT_NO_THROW(direct = analyze(spec)) << spec.name;
    EXPECT_TRUE(direct.ok) << spec.name << ": " << direct.diagnostics;
    specs.push_back(spec);
  }
  driver::BatchOptions options;
  options.threads = 1;
  driver::BatchAnalyzer batch(options);
  for (const Artifacts &a : batch.runArtifacts(specs))
    EXPECT_TRUE(a.ok) << a.diagnostics;
  EXPECT_EQ(batch.stats().failures, 0u);
  EXPECT_EQ(batch.cacheSize(), specs.size());
  batch.runArtifacts(specs);
  EXPECT_EQ(batch.stats().cacheHits, specs.size()); // none was transient
}

} // namespace
} // namespace mira::core
