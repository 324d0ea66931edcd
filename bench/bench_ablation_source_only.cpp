// Ablation — source-only (PBound-style) vs source+binary (Mira) accuracy.
//
// The paper's central design argument (Sec. I, Sec. V): PBound "relies
// purely on source code analysis, and ignores the effects of compiler
// transformations, frequently resulting in bound estimates that are not
// realistically achievable". This bench quantifies that on our compiled
// binaries: the source-only model assumes one scalar FP instruction per
// source FP operation, so it overestimates retired FPI on vectorized
// kernels by ~2x, while Mira recovers the main/remainder loop structure
// from the binary and stays within a fraction of a percent.
#include "bench_util.h"

#include "baseline/pbound.h"

namespace {

using namespace mira;
using sim::Value;

void printAblation() {
  bench::printHeader(
      "Ablation: retired-FPI estimates, source-only baseline vs Mira\n"
      "(errors vs the simulator's dynamic ground truth)");
  std::printf("%-28s | %12s | %12s | %9s | %12s | %9s\n", "workload", "Sim",
              "Mira", "err", "source-only", "err");

  // STREAM (vectorized: the baseline misses packing).
  {
    auto &a = bench::analyzeCached(workloads::streamSource(), "stream.mc");
    DiagnosticEngine diags;
    auto srcOnly = baseline::generateSourceOnlyModel(
        *a.program->get()->unit, a.program->get()->sema.callGraph, diags);
    std::int64_t n = 1'000'000;
    auto r = bench::simulateFF(a, "stream_main",
                               {Value::ofInt(n), Value::ofInt(10)});
    double dyn = r.fpiOf("stream_main");
    model::Env env{{"n", n}, {"ntimes", 10}};
    auto mira = a.model->evaluate("stream_main", env);
    auto pb = srcOnly.evaluate("stream_main", env);
    std::printf("%-28s | %12s | %12s | %9s | %12s | %9s\n",
                "STREAM 1M x10 (vectorized)", bench::fmtCount(dyn).c_str(),
                bench::fmtCount(mira ? mira->fpInstructions : -1).c_str(),
                bench::fmtErr(mira ? mira->fpInstructions : 0, dyn).c_str(),
                bench::fmtCount(pb ? pb->fpInstructions : -1).c_str(),
                bench::fmtErr(pb ? pb->fpInstructions : 0, dyn).c_str());
  }

  // DGEMM (scalar kernel: both close, baseline still misses glue).
  {
    auto &a = bench::analyzeCached(workloads::dgemmSource(), "dgemm.mc");
    DiagnosticEngine diags;
    auto srcOnly = baseline::generateSourceOnlyModel(
        *a.program->get()->unit, a.program->get()->sema.callGraph, diags);
    std::int64_t n = 256;
    auto r = bench::simulateFF(a, "dgemm_main", {Value::ofInt(n)});
    double dyn = r.fpiOf("dgemm_main");
    model::Env env{{"n", n}, {"total", n * n}};
    auto mira = a.model->evaluate("dgemm_main", env);
    auto pb = srcOnly.evaluate("dgemm_main", env);
    std::printf("%-28s | %12s | %12s | %9s | %12s | %9s\n",
                "DGEMM 256 (scalar kernel)", bench::fmtCount(dyn).c_str(),
                bench::fmtCount(mira ? mira->fpInstructions : -1).c_str(),
                bench::fmtErr(mira ? mira->fpInstructions : 0, dyn).c_str(),
                bench::fmtCount(pb ? pb->fpInstructions : -1).c_str(),
                bench::fmtErr(pb ? pb->fpInstructions : 0, dyn).c_str());
  }

  // miniFE (mixed: vectorized waxpby/dot + scalar gather matvec).
  {
    auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
    DiagnosticEngine diags;
    auto srcOnly = baseline::generateSourceOnlyModel(
        *a.program->get()->unit, a.program->get()->sema.callGraph, diags);
    int s = 30, iters = 100;
    auto r = bench::simulateFF(a, "cg_solve",
                               {Value::ofInt(s), Value::ofInt(s),
                                Value::ofInt(s), Value::ofInt(iters)});
    double dyn = r.fpiOf("cg_solve");
    model::Env env{{"nx", s},   {"ny", s},        {"nz", s},
                   {"max_iters", iters}, {"nrows", s * s * s},
                   {"nnz_row", 7},       {"n", s * s * s},
                   // The source-only baseline has no annotation support:
                   // the CSR loop bounds stay as parameters jbeg/jend.
                   {"jbeg", 0},          {"jend", 7}};
    auto mira = a.model->evaluate("cg_solve", env);
    auto pb = srcOnly.evaluate("cg_solve", env);
    std::printf("%-28s | %12s | %12s | %9s | %12s | %9s\n",
                "miniFE 30^3 cg_solve", bench::fmtCount(dyn).c_str(),
                bench::fmtCount(mira ? mira->fpInstructions : -1).c_str(),
                bench::fmtErr(mira ? mira->fpInstructions : 0, dyn).c_str(),
                bench::fmtCount(pb ? pb->fpInstructions : -1).c_str(),
                bench::fmtErr(pb ? pb->fpInstructions : 0, dyn).c_str());
  }
  bench::printRule();
  std::puts("Shape criterion: Mira's error stays within the paper's few-"
            "percent envelope; the source-only baseline misses compiler "
            "effects (SSE2 packing halves retired FPI) and lands ~2x high "
            "on vectorized kernels.");
}

void BM_SourceOnlyModelGeneration(benchmark::State &state) {
  auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
  for (auto _ : state) {
    DiagnosticEngine diags;
    auto m = baseline::generateSourceOnlyModel(
        *a.program->get()->unit, a.program->get()->sema.callGraph, diags);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_SourceOnlyModelGeneration);

} // namespace

int main(int argc, char **argv) {
  printAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
