// Fig. 7 — Validation of floating-point instruction counts (log-scale
// series across problem sizes): (a) STREAM, (b) DGEMM, (c)/(d) miniFE
// per-function counts at both problem sizes. Printed as the series the
// paper plots; shape criteria: static and dynamic series coincide and
// scale with the expected exponents.
#include "bench_util.h"

namespace {

using namespace mira;
using sim::Value;

void printSeries() {
  bench::printHeader("Fig. 7(a): STREAM FP instruction counts vs array size");
  {
    auto &a = bench::analyzeCached(workloads::streamSource(), "stream.mc");
    std::printf("%-12s | %12s | %12s\n", "N", "Sim", "Mira");
    for (std::int64_t n :
         {500'000, 1'000'000, 2'000'000, 5'000'000, 10'000'000, 20'000'000}) {
      auto r = bench::simulateFF(a, "stream_main",
                                 {Value::ofInt(n), Value::ofInt(10)});
      auto s = a.staticFPI("stream_main", {{"n", n}, {"ntimes", 10}});
      std::printf("%-12lld | %12s | %12s\n", static_cast<long long>(n),
                  bench::fmtCount(r.fpiOf("stream_main")).c_str(),
                  bench::fmtCount(s.value_or(-1)).c_str());
    }
  }

  bench::printHeader("Fig. 7(b): DGEMM FP instruction counts vs matrix size");
  {
    auto &a = bench::analyzeCached(workloads::dgemmSource(), "dgemm.mc");
    std::printf("%-12s | %12s | %12s\n", "n", "Sim", "Mira");
    for (std::int64_t n : {64, 128, 256, 512, 1024}) {
      auto r = bench::simulateFF(a, "dgemm_main", {Value::ofInt(n)});
      auto s = a.staticFPI("dgemm_main", {{"n", n}, {"total", n * n}});
      std::printf("%-12lld | %12s | %12s\n", static_cast<long long>(n),
                  bench::fmtCount(r.fpiOf("dgemm_main")).c_str(),
                  bench::fmtCount(s.value_or(-1)).c_str());
    }
  }

  bench::printHeader(
      "Fig. 7(c)/(d): miniFE per-function FPI at both problem sizes\n"
      "(waxpby and matvec operator() per call, cg_solve inclusive; 100 "
      "iterations)");
  {
    auto &a = bench::analyzeCached(workloads::minifeSource(), "minife.mc");
    struct Size {
      int nx, ny, nz;
      const char *label;
    };
    for (const Size &sz : {Size{30, 30, 30, "30x30x30"},
                           Size{35, 40, 45, "35x40x45"}}) {
      auto r = bench::simulateFF(a, "cg_solve",
                                 {Value::ofInt(sz.nx), Value::ofInt(sz.ny),
                                  Value::ofInt(sz.nz), Value::ofInt(100)});
      model::Env env = {{"nx", sz.nx},
                        {"ny", sz.ny},
                        {"nz", sz.nz},
                        {"max_iters", 100},
                        {"nrows",
                         static_cast<std::int64_t>(sz.nx) * sz.ny * sz.nz},
                        {"nnz_row", 7},
                        {"n",
                         static_cast<std::int64_t>(sz.nx) * sz.ny * sz.nz}};
      std::printf("%s:\n", sz.label);
      auto wax = a.model->evaluate("waxpby", env);
      std::printf("  %-20s | sim %12s | mira %12s\n", "waxpby",
                  bench::fmtCount(r.fpiPerCall("waxpby")).c_str(),
                  bench::fmtCount(wax ? wax->fpInstructions : -1).c_str());
      auto mv = a.model->evaluate("MatVec::operator()", env);
      std::printf("  %-20s | sim %12s | mira %12s\n", "matvec operator()",
                  bench::fmtCount(r.fpiPerCall("MatVec::operator()"))
                      .c_str(),
                  bench::fmtCount(mv ? mv->fpInstructions : -1).c_str());
      auto cg = a.model->evaluate("cg_solve", env);
      std::printf("  %-20s | sim %12s | mira %12s\n", "cg_solve",
                  bench::fmtCount(r.fpiOf("cg_solve")).c_str(),
                  bench::fmtCount(cg ? cg->fpInstructions : -1).c_str());
    }
  }
  bench::printRule();
}

} // namespace

// The series' model evaluation and simulation are timed once, by
// bench_table3_stream (BM_StaticModelEvaluation, BM_DynamicSimulation).
int main() {
  printSeries();
  return 0;
}
