// Model / arch / baseline / bridge unit tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>

#include "arch/arch.h"
#include "baseline/pbound.h"
#include "core/artifacts.h"
#include "core/mira.h"
#include "model/model.h"
#include "model/python_emitter.h"
#include "model/serialize.h"
#include "support/binary_io.h"
#include "support/hash.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace mira {
namespace {

/// Full static pipeline via the artifact API: model + live program.
core::Artifacts analyzeFull(const std::string &src, DiagnosticEngine &diags) {
  core::AnalysisSpec spec;
  spec.name = "t.mc";
  spec.source = src;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                   core::kArtifactProgram;
  return core::analyze(spec, diags);
}

} // namespace
} // namespace mira

namespace mira::model {
namespace {

using symbolic::Expr;

// ---------------------------------------------------------------- model

PerformanceModel twoFunctionModel() {
  PerformanceModel m;
  FunctionModel leaf;
  leaf.sourceName = "leaf";
  leaf.modelName = "leaf_1";
  CountStep s;
  s.multiplier = Expr::param("n");
  s.opcodes = {{isa::Opcode::MOVSD_RM, 3}, {isa::Opcode::ADDSD, 2}};
  leaf.counts.push_back(s);
  m.functions.push_back(leaf);

  FunctionModel root;
  root.sourceName = "root";
  root.modelName = "root_1";
  CallStep call;
  call.multiplier = Expr::param("reps");
  call.callee = "leaf";
  call.argBindings["n"] = Expr::param("m") * Expr::intConst(2);
  call.line = 5;
  root.calls.push_back(call);
  m.functions.push_back(root);
  return m;
}

TEST(Model, EvaluatesCountSteps) {
  PerformanceModel m = twoFunctionModel();
  auto counts = m.evaluate("leaf", {{"n", 10}});
  ASSERT_TRUE(counts.has_value());
  EXPECT_DOUBLE_EQ(counts->fpInstructions, 20.0);
  EXPECT_DOUBLE_EQ(counts->totalInstructions, 50.0);
  EXPECT_DOUBLE_EQ(counts->opcodes.at(isa::Opcode::MOVSD_RM), 30.0);
}

TEST(Model, CallStepsBindArgumentsAndMultiply) {
  PerformanceModel m = twoFunctionModel();
  // root(reps=3, m=5): leaf evaluated at n = 10, times 3.
  auto counts = m.evaluate("root", {{"reps", 3}, {"m", 5}});
  ASSERT_TRUE(counts.has_value());
  EXPECT_DOUBLE_EQ(counts->fpInstructions, 3 * 2 * 10.0);
}

TEST(Model, MissingParameterReportsName) {
  PerformanceModel m = twoFunctionModel();
  std::string error;
  auto counts = m.evaluate("leaf", {}, &error);
  EXPECT_FALSE(counts.has_value());
  EXPECT_NE(error.find("n"), std::string::npos);
}

TEST(Model, RequiredParametersCrossCallBoundaries) {
  PerformanceModel m = twoFunctionModel();
  auto params = m.requiredParameters("root");
  EXPECT_TRUE(params.count("reps"));
  EXPECT_TRUE(params.count("m"));
  EXPECT_FALSE(params.count("n")) << "bound by the call step";
}

TEST(Model, CategoriesAggregation) {
  PerformanceModel m = twoFunctionModel();
  auto counts = m.evaluate("leaf", {{"n", 1}});
  auto categories = counts->categories(arch::haswellDescription());
  EXPECT_DOUBLE_EQ(
      categories[static_cast<std::size_t>(
          isa::InstrCategory::SSE2PackedArith)],
      2.0);
  EXPECT_DOUBLE_EQ(
      categories[static_cast<std::size_t>(
          isa::InstrCategory::SSE2DataMovement)],
      3.0);
}

TEST(PythonEmitter, ModuleContainsHelpersAndFunctions) {
  PerformanceModel m = twoFunctionModel();
  std::string py = emitPython(m);
  EXPECT_NE(py.find("def _bump("), std::string::npos);
  EXPECT_NE(py.find("def handle_function_call("), std::string::npos);
  EXPECT_NE(py.find("def leaf_1("), std::string::npos);
  EXPECT_NE(py.find("def root_1("), std::string::npos);
  EXPECT_NE(py.find("__main__"), std::string::npos);
}

TEST(PythonEmitter, KeysAreInstructionCategories) {
  std::string py = emitPython(twoFunctionModel());
  for (isa::Opcode op : {isa::Opcode::MOVSD_RM, isa::Opcode::ADDSD}) {
    const std::string category = isa::categoryName(
        arch::haswellDescription().categoryOf(op));
    EXPECT_NE(py.find("_bump(metrics, '" + category + "'"), std::string::npos)
        << category;
    EXPECT_EQ(py.find("'" + isa::opcodeName(op) + "'"), std::string::npos);
  }
}

// ------------------------------------------------------ model byte pins

// Generated programs of the benchmark corpus's nest and pipeline
// families (tag comments dropped), fixed here so their bytes never move.
const std::string kPinnedNestA = R"(double k0(int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i += 2) {
    acc = acc - 0.8;
  }
  return acc;
}

double k1(int n) {
  double acc = 0.0;
  acc = acc + k0(n);
  for (int i = 0; i < n; i++) {
    for (int j = i; j < n; j++) {
      if (j % 5 != 0) {
        acc = acc - 0.7;
        acc = acc * 1.000004;
        acc = acc * 1.000008;
      }
    }
  }
  return acc;
}

double driver(int n) {
  double total = 0.0;
  total = total + k0(n);
  total = total + k1(n);
  return total;
}
)";

const std::string kPinnedNestB = R"(double k0(int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      if (j >= 1) {
        acc = acc - 0.9;
        acc = acc - 0.3;
      }
    }
  }
  return acc;
}

double k1(int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      for (int k = 0; k < n; k++) {
        if (k % 5 != 0) {
          acc = acc * 1.000006;
        }
      }
    }
  }
  return acc;
}

double k2(int n) {
  double acc = 0.0;
  acc = acc + k1(n);
  for (int i = 0; i < n; i++) {
    acc = acc * 1.000008;
    acc = acc * 1.000007;
    acc = acc - 0.9;
  }
  return acc;
}

double driver(int n) {
  double total = 0.0;
  total = total + k0(n);
  total = total + k1(n);
  total = total + k2(n);
  return total;
}
)";

const std::string kPinnedNestC = R"(double k0(int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) {
    for (int j = i; j < n; j++) {
      for (int k = j; k < n; k++) {
        if (k >= 3) {
          acc = acc * 1.000005;
          acc = acc * 1.000003;
          acc = acc + 0.7;
        }
      }
    }
  }
  return acc;
}

double k1(int n) {
  double acc = 0.0;
  acc = acc + k0(n);
  for (int i = 0; i < n; i++) {
    if (i % 3 != 0) {
      acc = acc + 0.3;
      acc = acc + 0.6;
    }
  }
  return acc;
}

double k2(int n) {
  double acc = 0.0;
  for (int i = 1; i <= n; i++) {
    for (int j = 0; j < n; j += 4) {
      acc = acc - 0.6;
    }
  }
  return acc;
}

double driver(int n) {
  double total = 0.0;
  total = total + k0(n);
  total = total + k1(n);
  total = total + k2(n);
  return total;
}
)";

const std::string kPinnedPipelineA = R"(void stage0(double* x, double* y, double* z, int n) {
  for (int i = 0; i < n; i++) {
    z[i] = x[i] + y[i] - y[i];
  }
}

void stage1(double* x, double* y, double* z, int n) {
  for (int i = 0; i < n; i++) {
    z[i] = x[i] / y[i];
  }
}

void stage2(double* x, double* y, double* z, int n) {
  for (int i = 0; i < n; i += 2) {
    z[i] = x[i] / y[i] - y[i];
  }
}

double dot(double* x, double* y, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    s = s + x[i] * y[i];
  }
  return s;
}

double driver(int n) {
  double a[n];
  double b[n];
  double c[n];
  double d[n];
  for (int i = 0; i < n; i++) {
    a[i] = 5.0;
    b[i] = 5.0;
    c[i] = 1.0;
    d[i] = 2.0;
  }
  stage0(a, b, c, n);
  stage1(b, c, d, n);
  stage2(c, d, a, n);
  double r = a[0];
  r = r + dot(a, c, n);
  return r;
}
)";

const std::string kPinnedPipelineB = R"(void stage0(double* x, double* y, double* z, int n) {
  for (int i = 0; i < n; i++) {
    z[i] = x[i] / y[i] / y[i];
  }
}

double driver(int n) {
  double a[n];
  double b[n];
  double c[n];
  double d[n];
  for (int i = 0; i < n; i++) {
    a[i] = 1.0;
    b[i] = 3.0;
    c[i] = 8.0;
    d[i] = 5.0;
  }
  stage0(a, b, c, n);
  double r = c[0];
  return r;
}
)";

// FNV-1a of model::serializeModel and of the serialized MiraObject under
// default options. Every other byte-identity test compares two serving
// paths within one build; these digests were recorded from an earlier
// build, so a walker, binast or bridge change that alters the bytes the
// same way on every path still fails here. The object digest also
// catches back-end changes that keep every opcode count (a different
// register choice leaves the model bytes alone). A deliberate model or
// code-generation change must update them.
TEST(ModelBytes, PinnedAcrossCommits) {
  struct Digests {
    std::uint64_t model;
    std::uint64_t object;
  };
  const std::map<std::string, Digests> pinned = {
      {"dgemm", {0x5798948a494f059cull, 0xa1a9b52833d39775ull}},
      {"fig5", {0x4e8010dd02b08e39ull, 0xc492823331331cdbull}},
      {"listings", {0x857024f8635a8773ull, 0xdedd701e2b16fe0full}},
      {"minife", {0xd3b1e8d068c8e3e9ull, 0x196e6635508ec9f4ull}},
      {"stream", {0xb26c50a0affb7400ull, 0x0517ecc12686d0b8ull}},
      {"adm", {0x59324a683406df70ull, 0x56870fc8c09ac713ull}},
      {"applu", {0xdaaf660b70a148d3ull, 0x92bf72864881d2faull}},
      {"apsi", {0x136c7976e902757full, 0xf3b513d32159b80eull}},
      {"dyfesm", {0x236ca8b142d29c76ull, 0x8da24a09e4369662ull}},
      {"lucas", {0xcc50322c9fb724c3ull, 0xef0a54ae63e03475ull}},
      {"mdg", {0xeb252ebceeae1161ull, 0x0adffae93fcd79ecull}},
      {"mg3d", {0xf744305cc321c64aull, 0x0b78388a574328e8ull}},
      {"mgrid", {0x1699acad56d9301eull, 0xa2988d398ad10922ull}},
      {"quake", {0xed249e5eb5af9f94ull, 0x63e10a43e314ee0eull}},
      {"swim", {0xd43e5842f6695234ull, 0x66d36032df636e53ull}},
      {"nest_a", {0x323a285c77601ae3ull, 0x8ce54130f6b91ce1ull}},
      {"nest_b", {0x65ef4ffc25e461fcull, 0x578e7300511dc88cull}},
      {"nest_c", {0x7e7859c18af7484cull, 0x6f691e6d60155e91ull}},
      {"pipeline_a", {0x6df6849c7ef14d85ull, 0x5d5528259257b1a0ull}},
      {"pipeline_b", {0x280aedd84fdd20a6ull, 0x7736b8d66adc0210ull}},
  };
  std::vector<std::pair<std::string, const std::string *>> sources;
  for (const auto &kernel : workloads::coverageSuite())
    sources.emplace_back(kernel.name, &kernel.source);
  for (const auto &workload : workloads::figSeriesWorkloads())
    sources.emplace_back(workload.name, workload.source);
  sources.emplace_back("nest_a", &kPinnedNestA);
  sources.emplace_back("nest_b", &kPinnedNestB);
  sources.emplace_back("nest_c", &kPinnedNestC);
  sources.emplace_back("pipeline_a", &kPinnedPipelineA);
  sources.emplace_back("pipeline_b", &kPinnedPipelineB);
  ASSERT_EQ(sources.size(), pinned.size());

  auto hex = [](std::uint64_t digest) {
    char text[32];
    std::snprintf(text, sizeof text, "0x%016llxull",
                  static_cast<unsigned long long>(digest));
    return std::string(text);
  };
  for (const auto &[name, source] : sources) {
    core::AnalysisSpec spec;
    spec.name = name + ".mc";
    spec.source = *source;
    spec.artifacts = core::kArtifactModel | core::kArtifactProgram;
    const core::Artifacts artifacts = core::analyze(spec);
    ASSERT_TRUE(artifacts.ok && artifacts.model && artifacts.program) << name;
    auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end()) << name;

    std::string bytes;
    serializeModel(*artifacts.model, bytes);
    const std::uint64_t model = fnv1a(bytes);
    EXPECT_EQ(model, it->second.model)
        << "model bytes of " << name << " moved; now " << hex(model);

    const auto program = artifacts.program->get();
    ASSERT_TRUE(program) << name;
    const std::vector<std::uint8_t> objectBytes = program->object.serialize();
    const std::uint64_t object = fnv1a(objectBytes.data(), objectBytes.size());
    EXPECT_EQ(object, it->second.object)
        << "object bytes of " << name << " moved; now " << hex(object);
  }
}

// Every SimResult field, in a fixed order: ok, error, the return value's
// three lanes, the total counters, each profile by name, printed values.
void putSimResult(std::string &out, const sim::SimResult &result) {
  auto putF64 = [&](double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    bio::putU64(out, bits);
  };
  auto putCounters = [&](const sim::Counters &counters) {
    for (std::uint64_t count : counters.categories)
      bio::putU64(out, count);
    bio::putU64(out, counters.totalInstructions);
    bio::putU64(out, counters.fpInstructions);
    bio::putU64(out, counters.flops);
  };
  bio::putU8(out, result.ok ? 1 : 0);
  bio::putString(out, result.error);
  bio::putI64(out, result.returnValue.i);
  putF64(result.returnValue.f);
  putF64(result.returnValue.f2);
  putCounters(result.total);
  bio::putU64(out, result.functions.size());
  for (const auto &[name, profile] : result.functions) {
    bio::putString(out, name);
    bio::putU64(out, profile.calls);
    putCounters(profile.inclusive);
  }
  bio::putU64(out, result.printed.size());
  for (double value : result.printed)
    putF64(value);
}

// FNV-1a of every SimResult field, per group, in exact and in
// fast-forward mode: the (function, arguments) pairs workloads_test
// simulates, the pinned generated programs above at n = 1, 3 and 6, one
// run per simulator error and two runs that grow the simulated memory.
// Recorded from an earlier build, like the model pins, so a simulator
// change that moves a counter, a profile, a printed or returned value or
// an error string on every path still fails here. A deliberate change to
// what the simulator counts must update them.
TEST(SimBytes, PinnedAcrossCommits) {
  struct Digests {
    std::uint64_t exact;
    std::uint64_t fastForward;
  };
  const std::map<std::string, Digests> pinned = {
      {"stream", {0x6c4bb7aab3f45579ull, 0xa9ae51f932889410ull}},
      {"dgemm", {0x47a2a6b62e735facull, 0xbf569dfe998f3e65ull}},
      {"minife", {0x4a88a7bb0f212cd7ull, 0x2f1cd47546117c8dull}},
      {"fig5", {0x35c1cfe7756d998bull, 0x35c1cfe7756d998bull}},
      {"listings", {0x672ab6392f301bcaull, 0x672ab6392f301bcaull}},
      {"nest_a", {0x9a3993cc840b9917ull, 0x9a3993cc840b9917ull}},
      {"nest_b", {0x90c0b30c5321ce9eull, 0x90c0b30c5321ce9eull}},
      {"nest_c", {0x647718f5f8775cdaull, 0x647718f5f8775cdaull}},
      {"pipeline_a", {0x66b4285116a38e51ull, 0x66b4285116a38e51ull}},
      {"pipeline_b", {0x40e8c9670c3ad929ull, 0x40e8c9670c3ad929ull}},
      {"errors", {0xbba272b622a31242ull, 0xbba272b622a31242ull}},
      {"memory", {0xd91f0f78cb3ce451ull, 0xd91f0f78cb3ce451ull}},
  };
  struct Run {
    const char *function;
    std::vector<std::int64_t> args;
    std::uint64_t budget = 1ull << 62;
  };
  struct Group {
    std::string name;
    std::string source;
    std::vector<Run> runs;
    /// Calls to this function are renamed in the compiled MIR, so the
    /// program calls a function its module lacks.
    const char *renameCallee = nullptr;
  };
  std::vector<Group> groups = {
      {"stream",
       workloads::streamSource(),
       {{"stream_main", {1, 3}},
        {"stream_main", {2, 3}},
        {"stream_main", {17, 3}},
        {"stream_main", {100, 3}},
        {"stream_main", {100, 10}},
        {"stream_main", {1000, 10}},
        {"stream_main", {4096, 10}},
        {"stream_main", {64, 2}}}},
      {"dgemm",
       workloads::dgemmSource(),
       {{"dgemm_main", {1}},
        {"dgemm_main", {2}},
        {"dgemm_main", {5}},
        {"dgemm_main", {16}},
        {"dgemm_main", {8}},
        {"dgemm_main", {32}},
        {"dgemm_main", {64}}}},
      {"minife",
       workloads::minifeSource(),
       {{"cg_solve", {6, 6, 6, 60}},
        {"minife_main", {2, 2, 2, 5}},
        {"minife_main", {4, 4, 4, 5}},
        {"minife_main", {6, 6, 6, 5}},
        {"cg_solve", {8, 8, 8, 20}},
        {"cg_solve", {12, 12, 12, 20}},
        {"cg_solve", {10, 10, 10, 10}}}},
      {"fig5", workloads::fig5Source(), {{"fig5_main", {64}}}},
      {"listings",
       workloads::listingsSource(),
       {{"listing1", {}},
        {"listing2", {}},
        {"listing4", {}},
        {"listing5", {}}}},
      // Groups sharing a name fold into one digest.
      {"errors",
       workloads::listingsSource(),
       {{"nope", {}}, {"listing1", {1}}}},
      {"errors", "int f(int a) { return 10 / a; }", {{"f", {0}}}},
      {"errors",
       "int f(int n) { int a = 0 - 9223372036854775807 - n; "
       "int m = 0 - n; return a / m; }",
       {{"f", {1}}}},
      {"errors",
       "int f(int n) { int a = 0 - 9223372036854775807 - n; "
       "int m = 0 - n; return a % m; }",
       {{"f", {1}}}},
      {"errors",
       "double f(double* p) { return p[0]; }",
       {{"f", {8}}, {"f", {1ll << 40}}}},
      {"errors",
       "int f() {\n  int i = 0;\n  while (i < 1000000000) { i = i + 1; }\n"
       "  return i;\n}\n",
       {{"f", {}, 10000}}},
      {"errors",
       "double f(int n) { double a[n]; a[0] = 1.0; return a[0]; }",
       {{"f", {1ll << 31}}}},
      {"errors",
       "int g(int x) { return x + 1; }\nint f(int n) { return g(n); }\n",
       {{"f", {2}}},
       "g"},
      // Accesses past the first MiB grow the simulated memory.
      {"memory", kPinnedPipelineB, {{"driver", {200000}}}},
      {"memory", "double f(double* p) { return p[0]; }", {{"f", {1ll << 24}}}},
  };
  for (const auto &[name, source] :
       {std::pair{"nest_a", &kPinnedNestA}, std::pair{"nest_b", &kPinnedNestB},
        std::pair{"nest_c", &kPinnedNestC},
        std::pair{"pipeline_a", &kPinnedPipelineA},
        std::pair{"pipeline_b", &kPinnedPipelineB}})
    groups.push_back(
        {name, *source, {{"driver", {1}}, {"driver", {3}}, {"driver", {6}}}});

  auto hex = [](std::uint64_t digest) {
    char text[32];
    std::snprintf(text, sizeof text, "0x%016llxull",
                  static_cast<unsigned long long>(digest));
    return std::string(text);
  };
  std::map<std::string, std::pair<std::string, std::string>> bytes;
  for (const Group &group : groups) {
    DiagnosticEngine diags;
    std::unique_ptr<core::CompiledProgram> program = core::compileProgram(
        group.source, group.name + ".mc", core::CompileOptions(), diags);
    ASSERT_TRUE(program) << group.name << ": " << diags.str();
    if (group.renameCallee)
      for (mir::MirFunction &fn : program->mir.functions)
        for (mir::MirBlock &block : fn.blocks)
          for (mir::MirInst &inst : block.insts)
            if (inst.op == mir::MirOp::Call &&
                inst.callee == group.renameCallee)
              inst.callee = "missing";
    for (const Run &run : group.runs) {
      std::vector<sim::Value> args;
      for (std::int64_t arg : run.args)
        args.push_back(sim::Value::ofInt(arg));
      sim::SimOptions options;
      options.maxInstructions = run.budget;
      auto &[exact, fastForward] = bytes[group.name];
      putSimResult(exact,
                   core::simulate(*program, run.function, args, options));
      options.fastForward = true;
      putSimResult(fastForward,
                   core::simulate(*program, run.function, args, options));
    }
  }
  ASSERT_EQ(bytes.size(), pinned.size());
  for (const auto &[name, modes] : bytes) {
    auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end()) << name;
    const std::uint64_t exact = fnv1a(modes.first);
    const std::uint64_t fastForward = fnv1a(modes.second);
    EXPECT_EQ(exact, it->second.exact)
        << "exact simulation of " << name << " moved; now " << hex(exact);
    EXPECT_EQ(fastForward, it->second.fastForward)
        << "fast-forward simulation of " << name << " moved; now "
        << hex(fastForward);
  }
}

// Symbols never leave the arena that minted them, and nothing they order
// reaches the bytes: a model built in one ExprInterner and decoded in
// another (the reader installs its own) serializes identically.
TEST(ModelBytes, DecodedInAnotherArenaSerializesIdentically) {
  core::AnalysisSpec spec;
  spec.name = "arena.mc";
  spec.source = "double f(double* v, int zeta, int alpha) {\n"
                "  double acc = 0.0;\n"
                "  for (int z = 0; z < zeta; z++)\n"
                "    for (int a = z; a < alpha + zeta; a++)\n"
                "      if (a % 3 != 0)\n"
                "        acc = acc + v[a];\n"
                "  return acc;\n"
                "}\n";
  spec.artifacts = core::kArtifactModel;
  const core::Artifacts artifacts = core::analyze(spec);
  ASSERT_TRUE(artifacts.ok && artifacts.model) << artifacts.diagnostics;
  std::string bytes;
  serializeModel(*artifacts.model, bytes);

  PerformanceModel decoded;
  std::size_t offset = 0;
  ASSERT_TRUE(deserializeModel(bytes, offset, decoded));
  std::string again;
  serializeModel(decoded, again);
  EXPECT_EQ(again, bytes);
}

} // namespace
} // namespace mira::model

namespace mira::arch {
namespace {

TEST(Arch, ParseRoundTrip) {
  const ArchDescription &ref = haswellDescription();
  DiagnosticEngine diags;
  auto parsed = ArchDescription::parse(ref.str(), diags);
  ASSERT_TRUE(parsed.has_value()) << diags.str();
  EXPECT_EQ(parsed->name, ref.name);
  EXPECT_EQ(parsed->cores, ref.cores);
  EXPECT_DOUBLE_EQ(parsed->clockGHz, ref.clockGHz);
}

TEST(Arch, CategoryOverride) {
  DiagnosticEngine diags;
  auto desc = ArchDescription::parse(
      "name = custom\n"
      "[categories]\n"
      "lea = Integer arithmetic instruction\n",
      diags);
  ASSERT_TRUE(desc.has_value()) << diags.str();
  EXPECT_EQ(desc->categoryOf(isa::Opcode::LEA),
            isa::InstrCategory::IntArith);
  // Unoverridden opcodes keep Mira's defaults.
  EXPECT_EQ(desc->categoryOf(isa::Opcode::ADDPD),
            isa::InstrCategory::SSE2PackedArith);
}

TEST(Arch, MalformedInputsDiagnosed) {
  DiagnosticEngine diags;
  EXPECT_FALSE(
      ArchDescription::parse("cores: not-a-kv-pair\n", diags).has_value());
  diags.clear();
  EXPECT_FALSE(ArchDescription::parse("[categories]\nnotanop = Misc "
                                      "Instruction\n",
                                      diags)
                   .has_value());
  EXPECT_TRUE(diags.containsMessage("unknown opcode"));
  diags.clear();
  EXPECT_FALSE(ArchDescription::parse("[categories]\nlea = Not A "
                                      "Category\n",
                                      diags)
                   .has_value());
}

TEST(Arch, ArithmeticIntensityAndRoofline) {
  isa::CategoryArray<double> counts{};
  counts[static_cast<std::size_t>(isa::InstrCategory::SSE2PackedArith)] =
      193;
  counts[static_cast<std::size_t>(isa::InstrCategory::SSE2DataMovement)] =
      367;
  // The paper's Sec. IV-D2 example: 1.93E8/3.67E8 = 0.53.
  EXPECT_NEAR(ArchDescription::arithmeticIntensity(counts), 0.526, 0.001);

  const ArchDescription &d = haswellDescription();
  EXPECT_DOUBLE_EQ(d.rooflineAttainable(1000.0), d.peakGFlops());
  EXPECT_LT(d.rooflineAttainable(0.1), d.peakGFlops());
}

TEST(Arch, PaperMachines) {
  EXPECT_EQ(haswellDescription().cores, 36);   // 2 x 18-core E5-2699v3
  EXPECT_EQ(nehalemDescription().cores, 8);    // 2 x 4-core E5620
  EXPECT_DOUBLE_EQ(haswellDescription().clockGHz, 2.3);
  EXPECT_DOUBLE_EQ(nehalemDescription().clockGHz, 2.4);
}

} // namespace
} // namespace mira::arch

namespace mira::baseline {
namespace {

TEST(Baseline, OverestimatesVectorizedFPI) {
  const char *src = "void axpy(double* x, double* y, int n) {\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    y[i] = y[i] + 2.0 * x[i];\n"
                    "  }\n"
                    "}\n"
                    "double driver(int n) {\n"
                    "  double x[n];\n"
                    "  double y[n];\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    x[i] = 1.0;\n"
                    "    y[i] = 1.0;\n"
                    "  }\n"
                    "  axpy(x, y, n);\n"
                    "  return y[0];\n"
                    "}";
  DiagnosticEngine diags;
  auto analysis = analyzeFull(src, diags);
  ASSERT_TRUE(analysis.ok) << diags.str();
  const core::CompiledProgram &program = *analysis.program->get();
  auto srcOnly = generateSourceOnlyModel(*program.unit,
                                         program.sema.callGraph, diags);

  std::int64_t n = 1000;
  auto r = core::simulate(program, "driver", {sim::Value::ofInt(n)});
  ASSERT_TRUE(r.ok);
  double dyn = r.fpiOf("driver");
  auto mira = analysis.model->evaluate("driver", {{"n", n}});
  auto pb = srcOnly.evaluate("driver", {{"n", n}});
  ASSERT_TRUE(mira && pb);
  // Mira tracks the vectorized binary; the source-only baseline counts
  // one scalar instruction per source FLOP and lands ~2x high.
  EXPECT_LT(core::relativeError(mira->fpInstructions, dyn), 0.01);
  EXPECT_GT(pb->fpInstructions, 1.8 * dyn);
}

TEST(Baseline, MatchesSourceOpCountsOnScalarCode) {
  const char *src = "double f(double a, double b) {\n"
                    "  return a * b + a / b;\n"
                    "}";
  DiagnosticEngine diags;
  auto analysis = analyzeFull(src, diags);
  ASSERT_TRUE(analysis.ok);
  const core::CompiledProgram &program = *analysis.program->get();
  auto srcOnly = generateSourceOnlyModel(*program.unit,
                                         program.sema.callGraph, diags);
  auto counts = srcOnly.evaluate("f", {});
  ASSERT_TRUE(counts.has_value());
  EXPECT_DOUBLE_EQ(counts->fpInstructions, 3.0); // mul + div + add
}

} // namespace
} // namespace mira::baseline

namespace mira::bridge {
namespace {

TEST(Bridge, LineQueriesAreConsistent) {
  const char *src = "double f(double* v, int n) {\n"
                    "  double s = 0.0;\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    s = s + v[i] * 2.0;\n"
                    "  }\n"
                    "  return s;\n"
                    "}";
  DiagnosticEngine diags;
  auto analysis = analyzeFull(src, diags);
  ASSERT_TRUE(analysis.ok) << diags.str();
  const FunctionBridge *fb = analysis.program->get()->bridge->of("f");
  ASSERT_NE(fb, nullptr);

  // The sum over {outside-loops + per-loop bodies + headers} of all lines
  // must equal the function's instruction count.
  const auto &bin = fb->binary();
  std::size_t total = bin.instructions.size();
  std::size_t accounted = 0;
  for (std::uint32_t line : fb->coveredLines()) {
    auto outside = fb->opcodesAtLine(line, nullptr);
    for (const auto &[op, n] : outside)
      accounted += n;
    for (const auto &loop : bin.loops) {
      auto inLoop = fb->opcodesAtLine(line, &loop);
      for (const auto &[op, n] : inLoop)
        accounted += n;
    }
  }
  for (const auto &loop : bin.loops)
    accounted += loop.headerInstrCount;
  EXPECT_EQ(accounted, total);
}

} // namespace
} // namespace mira::bridge
