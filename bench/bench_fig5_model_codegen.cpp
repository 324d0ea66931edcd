// Fig. 5 — Statically generated model: prints the Python model Mira emits
// for the paper's class-A example (member function with annotated inner
// bound, called from a driver), and times model generation end to end —
// the "generate once, evaluate cheaply" half of the paper's tradeoff
// argument (Sec. IV-D1).
#include "bench_util.h"

#include "model/python_emitter.h"

namespace {

using namespace mira;

/// One full model-generation pass through the v2 artifact API; the
/// timed unit for the generation benches below.
core::Artifacts generateModel(const std::string &source,
                              const std::string &name) {
  DiagnosticEngine diags;
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics;
  return core::analyze(spec, diags);
}

void printFig5() {
  auto &a = bench::analyzeCached(workloads::fig5Source(), "fig5.mc");
  bench::printHeader(
      "Fig. 5: statically generated Python model for the class-A example\n"
      "(b) generated foo function and (c) generated driver follow");
  std::puts(model::emitPython(*a.model).c_str());
  bench::printRule();

  // Cross-check: evaluating the model with the annotation parameter y=8
  // matches executing the program (len[i] = 8 in the driver).
  auto counts = a.model->evaluate("A::foo", {{"y", 8}});
  auto r = core::simulate(*a.program->get(), "fig5_main", {sim::Value::ofInt(64)});
  std::printf("model FPI of A::foo at y=8: %s, executed: %s (error %s)\n",
              bench::fmtCount(counts ? counts->fpInstructions : -1).c_str(),
              bench::fmtCount(r.fpiOf("A::foo")).c_str(),
              bench::fmtErr(counts ? counts->fpInstructions : 0,
                            r.fpiOf("A::foo"))
                  .c_str());
  bench::printRule();
}

void BM_FullModelGeneration(benchmark::State &state) {
  // Parse + compile + disassemble + bridge + metric generation: the
  // "model only needs to be generated once" cost.
  for (auto _ : state) {
    core::Artifacts result = generateModel(workloads::fig5Source(), "fig5.mc");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullModelGeneration)->Unit(benchmark::kMillisecond);

void BM_PythonEmission(benchmark::State &state) {
  auto &a = bench::analyzeCached(workloads::fig5Source(), "fig5.mc");
  for (auto _ : state) {
    std::string py = model::emitPython(*a.model);
    benchmark::DoNotOptimize(py);
  }
}
BENCHMARK(BM_PythonEmission);

void BM_MiniFEModelGeneration(benchmark::State &state) {
  for (auto _ : state) {
    core::Artifacts result =
        generateModel(workloads::minifeSource(), "minife.mc");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MiniFEModelGeneration)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printFig5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
