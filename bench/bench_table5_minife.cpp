// Table V — FPI counts in miniFE at problem sizes 30x30x30 and 35x40x45
// for the functions the paper reports: waxpby (per call), the sparse
// matrix-vector product MatVec::operator() (per call), and cg_solve
// (inclusive over the CG iteration loop, dominating the FP work).
//
// Error sources reproduce the paper's: the CSR row loop's trip count is
// data dependent, resolved by the {lp_iters:nnz_row} annotation with the
// user-supplied stencil size 7 — a slight overestimate on boundary rows,
// the same "discrepancies within some of the loops" the paper reports
// (errors up to 3.08%).
#include "bench_util.h"

namespace {

using namespace mira;
using sim::Value;

constexpr int kIters = 100; // fixed CG iteration budget

model::Env minifeEnv(int nx, int ny, int nz) {
  return {{"nx", nx},
          {"ny", ny},
          {"nz", nz},
          {"max_iters", kIters},
          {"nrows", static_cast<std::int64_t>(nx) * ny * nz},
          {"nnz_row", 7},
          {"n", static_cast<std::int64_t>(nx) * ny * nz}};
}

void printTable5() {
  auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
  bench::printHeader(
      "Table V: FPI Counts in miniFE (100 CG iterations)\n"
      "waxpby / matvec operator(): per-call counts; cg_solve: inclusive");
  std::printf("%-10s | %-22s | %12s | %12s | %10s\n", "size", "Function",
              "Sim", "Mira", "Error");
  struct Size {
    int nx, ny, nz;
    const char *label;
  };
  for (const Size &s : {Size{30, 30, 30, "30x30x30"},
                        Size{35, 40, 45, "35x40x45"}}) {
    auto r = bench::simulateFF(a, "cg_solve",
                               {Value::ofInt(s.nx), Value::ofInt(s.ny),
                                Value::ofInt(s.nz), Value::ofInt(kIters)});
    model::Env env = minifeEnv(s.nx, s.ny, s.nz);

    struct Row {
      const char *fn;
      const char *label;
      bool perCall;
    };
    for (const Row &row :
         {Row{"waxpby", "waxpby", true},
          Row{"MatVec::operator()", "matvec operator()", true},
          Row{"cg_solve", "cg_solve", false}}) {
      double dynamicFPI =
          row.perCall ? r.fpiPerCall(row.fn) : r.fpiOf(row.fn);
      std::string error;
      auto counts = a.model->evaluate(row.fn, env, &error);
      double staticFPI = counts ? counts->fpInstructions : -1;
      std::printf("%-10s | %-22s | %12s | %12s | %10s\n", s.label,
                  row.label, bench::fmtCount(dynamicFPI).c_str(),
                  bench::fmtCount(staticFPI).c_str(),
                  bench::fmtErr(staticFPI, dynamicFPI).c_str());
    }
  }
  bench::printRule();
  std::puts("Paper reference: errors 0.011%-3.08%; growth comes from the "
            "data-dependent sparse row loop resolved by annotation.");
}

void BM_ModelEvaluation(benchmark::State &state) {
  auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
  model::Env env = minifeEnv(35, 40, 45);
  for (auto _ : state) {
    auto counts = a.model->evaluate("cg_solve", env);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_ModelEvaluation);

void BM_DynamicSimulation30(benchmark::State &state) {
  auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
  for (auto _ : state) {
    auto r = bench::simulateFF(a, "cg_solve",
                               {Value::ofInt(30), Value::ofInt(30),
                                Value::ofInt(30), Value::ofInt(10)});
    benchmark::DoNotOptimize(r.total.fpInstructions);
  }
}
BENCHMARK(BM_DynamicSimulation30)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printTable5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
