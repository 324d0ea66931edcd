// Randomized end-to-end property tests: generate MiniC kernels with
// random affine loop nests, guards and FP bodies; require the statically
// evaluated model's FPI to equal the simulator's retired FPI exactly.
// This is the paper's validation methodology turned into a property:
// for affine SCoPs the static model is not an estimate, it is exact.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "core/artifacts.h"
#include "core/mira.h"
#include "model/model.h"
#include "model/serialize.h"
#include "symbolic/interner.h"

namespace mira {
namespace {

using sim::Value;

/// Full static pipeline via the artifact API: model + live program.
core::Artifacts analyzeFull(const std::string &src, DiagnosticEngine &diags) {
  core::AnalysisSpec spec;
  spec.name = "random.mc";
  spec.source = src;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                   core::kArtifactProgram;
  return core::analyze(spec, diags);
}

/// A random but well-formed kernel: up to 3 nested affine loops over a
/// parametric bound, an optional affine or congruence guard, and a body
/// accumulating FP work.
std::string makeKernel(std::mt19937 &rng) {
  std::uniform_int_distribution<int> depthDist(1, 3);
  std::uniform_int_distribution<int> styleDist(0, 3);
  std::uniform_int_distribution<int> smallDist(0, 3);

  int depth = depthDist(rng);
  std::ostringstream out;
  out << "double kernel(int n) {\n";
  out << "  double acc = 0.0;\n";
  const char *vars[] = {"i", "j", "k"};
  std::string indent = "  ";
  bool innerStrided = false;
  for (int d = 0; d < depth; ++d) {
    const char *v = vars[d];
    int style = styleDist(rng);
    if (d + 1 == depth)
      innerStrided = style == 3;
    out << indent << "for (int " << v << " = ";
    switch (style) {
    case 0: // rectangular 0..n-1
      out << "0; " << v << " < n; " << v << "++",
          (void)0;
      break;
    case 1: // inclusive 1..n
      out << "1; " << v << " <= n; " << v << "++";
      break;
    case 2: // triangular on the previous variable
      if (d > 0)
        out << vars[d - 1] << "; " << v << " < n; " << v << "++";
      else
        out << "0; " << v << " < n; " << v << "++";
      break;
    default: // strided
      out << "0; " << v << " < n; " << v << " += " << (2 + smallDist(rng));
      break;
    }
    out << ") {\n";
    indent += "  ";
  }

  // Optional guard at the innermost level. Stride + guard needs a user
  // annotation (an arithmetic-progression/congruence intersection the
  // counter deliberately refuses to guess), so exactness is only
  // expected without that combination.
  int guard = innerStrided ? 0 : styleDist(rng);
  const char *inner = vars[depth - 1];
  if (guard == 1) {
    out << indent << "if (" << inner << " >= " << (1 + smallDist(rng))
        << ") {\n";
    indent += "  ";
  } else if (guard == 2) {
    out << indent << "if (" << inner << " % " << (2 + smallDist(rng))
        << " != 0) {\n";
    indent += "  ";
  }

  out << indent << "acc = acc + 1.5;\n";
  out << indent << "acc = acc * 1.000001;\n";

  if (guard == 1 || guard == 2) {
    indent.resize(indent.size() - 2);
    out << indent << "}\n";
  }
  for (int d = depth - 1; d >= 0; --d) {
    indent.resize(indent.size() - 2);
    out << indent << "}\n";
  }
  out << "  return acc;\n";
  out << "}\n";
  return out.str();
}

class RandomKernelFPI : public ::testing::TestWithParam<int> {};

TEST_P(RandomKernelFPI, StaticEqualsDynamic) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 13u);
  for (int trial = 0; trial < 8; ++trial) {
    std::string src = makeKernel(rng);
    SCOPED_TRACE(src);
    DiagnosticEngine diags;
    auto analysis = analyzeFull(src, diags);
    ASSERT_TRUE(analysis.ok) << diags.str();
    for (std::int64_t n : {1, 2, 7, 13}) {
      auto staticFPI = analysis.staticFPI("kernel", {{"n", n}});
      ASSERT_TRUE(staticFPI.has_value()) << "n=" << n;
      auto r = core::simulate(*analysis.program->get(), "kernel",
                              {Value::ofInt(n)});
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_DOUBLE_EQ(*staticFPI, r.fpiOf("kernel")) << "n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelFPI,
                         ::testing::Range(1, 13));

// Array kernels: random unit-stride FP pipelines that may or may not
// vectorize; static FPI must stay exact either way.
std::string makeArrayKernel(std::mt19937 &rng) {
  std::uniform_int_distribution<int> opsDist(1, 3);
  std::uniform_int_distribution<int> opDist(0, 3);
  const char *ops[] = {"+", "-", "*", "/"};
  std::ostringstream out;
  out << "void kernel(double* a, double* b, double* c, int n) {\n";
  out << "  for (int i = 0; i < n; i++) {\n";
  int nops = opsDist(rng);
  out << "    c[i] = a[i]";
  for (int k = 0; k < nops; ++k)
    out << " " << ops[opDist(rng)] << " b[i]";
  out << ";\n";
  out << "  }\n";
  out << "}\n";
  out << "double driver(int n) {\n";
  out << "  double a[n];\n";
  out << "  double b[n];\n";
  out << "  double c[n];\n";
  out << "  for (int i = 0; i < n; i++) {\n";
  out << "    a[i] = 2.0;\n";
  out << "    b[i] = 4.0;\n";
  out << "    c[i] = 0.0;\n";
  out << "  }\n";
  out << "  kernel(a, b, c, n);\n";
  out << "  return c[0];\n";
  out << "}\n";
  return out.str();
}

class RandomArrayKernelFPI : public ::testing::TestWithParam<int> {};

TEST_P(RandomArrayKernelFPI, StaticEqualsDynamicVectorizedOrNot) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729u + 7u);
  for (int trial = 0; trial < 6; ++trial) {
    std::string src = makeArrayKernel(rng);
    SCOPED_TRACE(src);
    DiagnosticEngine diags;
    auto analysis = analyzeFull(src, diags);
    ASSERT_TRUE(analysis.ok) << diags.str();
    for (std::int64_t n : {1, 2, 3, 16, 31}) {
      auto staticFPI = analysis.staticFPI("driver", {{"n", n}});
      ASSERT_TRUE(staticFPI.has_value());
      auto r = core::simulate(*analysis.program->get(), "driver",
                              {Value::ofInt(n)});
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_DOUBLE_EQ(*staticFPI, r.fpiOf("driver")) << "n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomArrayKernelFPI,
                         ::testing::Range(1, 7));

// ------------------------------------------------ symbolic interner laws

namespace expr_props {

using symbolic::Expr;
using symbolic::ExprNode;

/// Ground truth for Expr::equals: field-by-field recursion over the
/// public node shape, independent of hashes, cached keys, and interner
/// bookkeeping.
bool deepStructuralEqual(const ExprNode &a, const ExprNode &b) {
  if (a.kind != b.kind || a.value != b.value || a.name != b.name ||
      a.operands.size() != b.operands.size())
    return false;
  for (std::size_t i = 0; i < a.operands.size(); ++i)
    if (!deepStructuralEqual(*a.operands[i], *b.operands[i]))
      return false;
  return true;
}

/// Random expression over adversarial parameter names. The names embed
/// the metacharacters of the old string-valued ordering key ("," and
/// "(") so that distinct trees could collide under naive string
/// concatenation — exactly what hash-consed equality must not do.
Expr randomExpr(std::mt19937 &rng, int depth) {
  static const char *params[] = {"N", "M", "a,b", "a", "b", "x(", "x", "("};
  std::uniform_int_distribution<int> paramDist(0, 7);
  std::uniform_int_distribution<std::int64_t> constDist(-4, 4);
  if (depth <= 0) {
    if (std::uniform_int_distribution<int>(0, 1)(rng))
      return Expr::param(params[paramDist(rng)]);
    return Expr::intConst(constDist(rng));
  }
  switch (std::uniform_int_distribution<int>(0, 7)(rng)) {
  case 0:
    return randomExpr(rng, depth - 1) + randomExpr(rng, depth - 1);
  case 1:
    return randomExpr(rng, depth - 1) * randomExpr(rng, depth - 1);
  case 2:
    return Expr::floorDiv(randomExpr(rng, depth - 1),
                          randomExpr(rng, depth - 1));
  case 3:
    return Expr::mod(randomExpr(rng, depth - 1), randomExpr(rng, depth - 1));
  case 4:
    return Expr::min(randomExpr(rng, depth - 1), randomExpr(rng, depth - 1));
  case 5:
    return Expr::max(randomExpr(rng, depth - 1), randomExpr(rng, depth - 1));
  case 6:
    return Expr::sum(params[paramDist(rng)], randomExpr(rng, depth - 1),
                     randomExpr(rng, depth - 1), randomExpr(rng, depth - 1));
  default:
    return Expr::param(params[paramDist(rng)]);
  }
}

class ExprEqualsProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExprEqualsProperty, HashConsedEqualsMatchesDeepStructuralEquality) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 48271u + 11u);
  std::uniform_int_distribution<int> coin(0, 1);
  for (int trial = 0; trial < 60; ++trial) {
    // Half the trials replay the same seed (structurally identical
    // construction, so equals() must say true); half draw independent
    // trees (usually different, and equals() must agree with the ground
    // truth either way). Separate interners force equals() off the
    // pointer-identity fast path onto the hash + deep-walk fallback.
    const unsigned seedA = rng();
    const unsigned seedB = coin(rng) ? seedA : rng();
    symbolic::ExprInterner left, right;
    Expr a, b;
    {
      symbolic::ExprInterner::Scope scope(left);
      std::mt19937 gen(seedA);
      a = randomExpr(gen, 3);
    }
    {
      symbolic::ExprInterner::Scope scope(right);
      std::mt19937 gen(seedB);
      b = randomExpr(gen, 3);
    }
    SCOPED_TRACE(a.str() + "  vs  " + b.str());
    EXPECT_EQ(a.equals(b), deepStructuralEqual(a.node(), b.node()));
    if (seedA == seedB)
      EXPECT_TRUE(a.equals(b));
    EXPECT_TRUE(a.equals(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprEqualsProperty, ::testing::Range(1, 5));

class ModelRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(ModelRoundTripProperty, SerializeDeserializeReinternIsByteIdentical) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 65537u + 3u);
  for (int trial = 0; trial < 20; ++trial) {
    model::PerformanceModel m;
    m.sourceFile = "prop.mc";
    model::FunctionModel fn;
    fn.sourceName = "f";
    fn.modelName = "f_1";
    std::uniform_int_distribution<int> stepsDist(1, 4);
    const int steps = stepsDist(rng);
    for (int s = 0; s < steps; ++s) {
      model::CountStep step;
      step.multiplier = randomExpr(rng, 3);
      step.opcodes = {{isa::Opcode::ADDSD, 1}};
      fn.counts.push_back(std::move(step));
    }
    m.functions.push_back(std::move(fn));

    std::string bytes;
    model::serializeModel(m, bytes);

    // Deserialization re-enters an interner (Expr::fromNode); the trip
    // must not move a single byte, or cached and fresh models would
    // diverge under the daemon's differential pins.
    model::PerformanceModel restored;
    std::size_t offset = 0;
    ASSERT_TRUE(model::deserializeModel(bytes, offset, restored));
    ASSERT_EQ(offset, bytes.size());

    std::string bytesAgain;
    model::serializeModel(restored, bytesAgain);
    EXPECT_EQ(bytes, bytesAgain);

    // And the restored expressions are structurally the ones serialized.
    for (std::size_t s = 0; s < m.functions[0].counts.size(); ++s) {
      EXPECT_TRUE(restored.functions[0].counts[s].multiplier.equals(
          m.functions[0].counts[s].multiplier));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelRoundTripProperty,
                         ::testing::Range(1, 5));

} // namespace expr_props

} // namespace
} // namespace mira
