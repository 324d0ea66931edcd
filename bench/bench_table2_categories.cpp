// Table II + Fig. 6 — Categorized instruction counts and distribution of
// function cg_solve.
//
// The paper evaluates the Mira-generated model of miniFE's cg_solve with
// the architecture description file's 64-way categorization and reports
// per-category counts (Table II) and their relative distribution (Fig. 6,
// a pie chart; printed here as percentage shares). Shape criteria:
// integer data transfer dominates, SSE2 packed arithmetic and SSE2 data
// movement are the FP-related heavyweights, and the same seven category
// rows are populated.
#include "bench_util.h"

#include "workloads/workloads.h"

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

void printTable2AndFig6() {
  auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
  // Paper problem size 35x40x45; miniFE's default CG budget is 200
  // iterations (we use the same).
  model::Env env = minifeEnv(35, 40, 45, 200);
  std::string error;
  auto counts = a.model->evaluate("cg_solve", env, &error);
  if (!counts) {
    std::fprintf(stderr, "model evaluation failed: %s\n", error.c_str());
    std::abort();
  }
  auto categories = counts->categories(arch::haswellDescription());

  bench::printHeader(
      "Table II: Categorized instruction counts of function cg_solve\n"
      "(Mira model, 35x40x45, 200 CG iterations, haswell-arya.adf)");
  std::printf("%-55s | %12s\n", "Category", "Count");
  double total = 0;
  for (std::size_t c = 0; c < isa::kNumCategories; ++c)
    total += categories[c];
  // Print the paper's seven headline categories first, then any other
  // populated category.
  const isa::InstrCategory headline[] = {
      isa::InstrCategory::IntArith,
      isa::InstrCategory::IntControlTransfer,
      isa::InstrCategory::IntDataTransfer,
      isa::InstrCategory::SSE2DataMovement,
      isa::InstrCategory::SSE2PackedArith,
      isa::InstrCategory::MiscInstruction,
      isa::InstrCategory::Mode64Bit,
  };
  for (isa::InstrCategory c : headline) {
    std::printf("%-55s | %12s\n", isa::categoryName(c).c_str(),
                bench::fmtCount(categories[static_cast<std::size_t>(c)])
                    .c_str());
  }
  for (std::size_t c = 0; c < isa::kNumCategories; ++c) {
    bool isHeadline = false;
    for (isa::InstrCategory h : headline)
      if (static_cast<std::size_t>(h) == c)
        isHeadline = true;
    if (!isHeadline && categories[c] > 0)
      std::printf("%-55s | %12s\n",
                  isa::categoryName(static_cast<isa::InstrCategory>(c))
                      .c_str(),
                  bench::fmtCount(categories[c]).c_str());
  }
  std::printf("%-55s | %12s\n", "TOTAL", bench::fmtCount(total).c_str());

  bench::printHeader("Fig. 6: Instruction distribution of cg_solve "
                     "(percentage shares; the paper's pie chart)");
  for (std::size_t c = 0; c < isa::kNumCategories; ++c) {
    if (categories[c] <= 0)
      continue;
    double share = 100.0 * categories[c] / total;
    std::printf("%-55s | %6.2f%% %s\n",
                isa::categoryName(static_cast<isa::InstrCategory>(c))
                    .c_str(),
                share,
                std::string(static_cast<std::size_t>(share / 2), '#')
                    .c_str());
  }
  bench::printRule();
}

void BM_ModelEvaluation_CgSolve(benchmark::State &state) {
  auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
  model::Env env = minifeEnv(35, 40, 45, 200);
  for (auto _ : state) {
    auto counts = a.model->evaluate("cg_solve", env);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_ModelEvaluation_CgSolve);

void BM_CategoryAggregation(benchmark::State &state) {
  auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
  auto counts = a.model->evaluate("cg_solve", minifeEnv(35, 40, 45, 200));
  for (auto _ : state) {
    auto categories = counts->categories(arch::haswellDescription());
    benchmark::DoNotOptimize(categories);
  }
}
BENCHMARK(BM_CategoryAggregation);

} // namespace

int main(int argc, char **argv) {
  printTable2AndFig6();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
