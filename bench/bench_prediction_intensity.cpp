// Sec. IV-D2 — Prediction: instruction-based arithmetic intensity of
// cg_solve from the Mira-generated metrics (paper computes 1.93E8/3.67E8
// = 0.53 on its 27-point miniFE), plus the Roofline consequences under
// both validation machines' architecture description files.
#include "bench_util.h"

namespace {

using namespace mira;

model::Env minifeEnv(int nx, int ny, int nz, int iters) {
  return {{"nx", nx},
          {"ny", ny},
          {"nz", nz},
          {"max_iters", iters},
          {"nrows", static_cast<std::int64_t>(nx) * ny * nz},
          {"nnz_row", 7}};
}

void printPrediction() {
  auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
  model::Env env = minifeEnv(35, 40, 45, 200);
  auto counts = a.model->evaluate("cg_solve", env);
  if (!counts) {
    std::fprintf(stderr, "model evaluation failed\n");
    std::abort();
  }
  auto categories = counts->categories(arch::haswellDescription());
  double packed = categories[static_cast<std::size_t>(
      isa::InstrCategory::SSE2PackedArith)];
  double movement = categories[static_cast<std::size_t>(
      isa::InstrCategory::SSE2DataMovement)];
  double intensity = arch::ArchDescription::arithmeticIntensity(categories);

  bench::printHeader(
      "Sec. IV-D2 prediction: instruction-based arithmetic intensity of "
      "cg_solve");
  std::printf("SSE2 packed arithmetic instructions : %s\n",
              bench::fmtCount(packed).c_str());
  std::printf("SSE2 data movement instructions     : %s\n",
              bench::fmtCount(movement).c_str());
  std::printf("arithmetic intensity                : %.2f  (paper: "
              "1.93E8 / 3.67E8 = 0.53 on 27-pt miniFE)\n",
              intensity);

  bench::printHeader("Roofline consequences (architecture description "
                     "files of the two validation machines)");
  for (const arch::ArchDescription *d :
       {&arch::haswellDescription(), &arch::nehalemDescription()}) {
    // Convert instruction intensity to flops/byte: packed SSE2 = 2 flops
    // per instruction, data movement = 16 bytes per packed access (the
    // description file's vector width).
    double flopsPerByte =
        (counts->flops) /
        (movement * d->vectorWidthDoubles * 8.0 + 1e-9);
    std::printf("%-22s peak %7.1f GF/s, attainable at %.3f F/B: %7.1f "
                "GF/s (%s)\n",
                d->name.c_str(), d->peakGFlops(), flopsPerByte,
                d->rooflineAttainable(flopsPerByte),
                d->rooflineAttainable(flopsPerByte) < d->peakGFlops()
                    ? "memory bound"
                    : "compute bound");
  }
  bench::printRule();
}

void BM_IntensityDerivation(benchmark::State &state) {
  auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
  model::Env env = minifeEnv(35, 40, 45, 200);
  for (auto _ : state) {
    auto counts = a.model->evaluate("cg_solve", env);
    auto categories = counts->categories(arch::haswellDescription());
    double intensity =
        arch::ArchDescription::arithmeticIntensity(categories);
    benchmark::DoNotOptimize(intensity);
  }
}
BENCHMARK(BM_IntensityDerivation);

void BM_ArchFileParsing(benchmark::State &state) {
  std::string text = arch::haswellDescription().str();
  for (auto _ : state) {
    DiagnosticEngine diags;
    auto desc = arch::ArchDescription::parse(text, diags);
    benchmark::DoNotOptimize(desc);
  }
}
BENCHMARK(BM_ArchFileParsing);

} // namespace

int main(int argc, char **argv) {
  printPrediction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
