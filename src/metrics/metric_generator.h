// The Metric Generator (paper Sec. III-B): walks the source AST with
// polyhedral loop context, associates statements with the machine
// instructions they compiled to (through the line-table bridge), and
// produces the parametric performance model.
//
// Counting scheme (exact for the canonical machine-loop shape):
//   * a counted source loop with total iteration count A entered E times
//     has its machine header executed A + E times (sum over entries of
//     trips+1), body and latch executed A times;
//   * a vectorized source loop maps to TWO machine loops; with T
//     per-entry trips the main (step 2) loop runs floor(T/2) times per
//     entry and the scalar remainder T mod 2 times — recovered from the
//     binary loops' induction steps, which is why source-only analysis
//     gets optimized binaries wrong;
//   * statements under an if take the guard-constrained polyhedral count
//     (Fig. 4b), congruence guards use the complement rule (Fig. 4c);
//   * user annotations (lp_init / lp_cond / lp_iters / ratio / skip)
//     resolve what static analysis cannot (Listing 6).
#pragma once

#include "bridge/bridge.h"
#include "frontend/ast.h"
#include "model/model.h"
#include "sema/sema.h"
#include "support/diagnostics.h"

namespace mira::metrics {

struct MetricOptions {
  /// Treat data-dependent branches without a ratio annotation as always
  /// taken (conservative over-count) instead of failing.
  bool assumeBranchesTaken = true;
};

/// Generate the performance model for every function of the program.
/// `bridge` must come from the same compile as `unit`. Functions are
/// modeled one after another in call-graph order on the calling thread,
/// so every expression lands in the caller's current ExprInterner;
/// parallelism lives across requests (driver::BatchAnalyzer), never
/// inside one.
model::PerformanceModel generateModel(const frontend::TranslationUnit &unit,
                                      const sema::CallGraph &callGraph,
                                      const bridge::ProgramBridge &bridge,
                                      const MetricOptions &options,
                                      DiagnosticEngine &diags);

} // namespace mira::metrics
