// AST -> MIR lowering.
//
// Lowers each MiniC function to a CFG of MIR instructions. Counted loops
// (recognized via the same SCoP matching Mira's metric generator uses) are
// lowered to the canonical shape
//     preheader:  limit = <hoisted bound>; jump header
//     header:     t = icmp ind REL limit; branch t, body, exit
//     body:       ...
//     latch:      ind += step; jump header
// and recorded as LoopDescriptors, which later drive vectorization,
// machine-loop emission, and simulator fast-forward.
//
// Bound hoisting: bounds made of loop-invariant scalars are always
// hoisted. Bounds containing loads (e.g. CSR row_ptr[i+1]) are hoisted
// only when the loop carries '#pragma @Simulate {ff:yes}' — the workload's
// assertion that the loop does not write its own bound, mirroring what a
// production compiler proves with alias analysis.
#pragma once

#include "frontend/ast.h"
#include "mir/mir.h"
#include "support/diagnostics.h"

namespace mira::mir {

struct CompilerOptions {
  bool optimize = true;  // constant folding, copy propagation, DCE
  bool vectorize = true; // SSE2 2-lane vectorization of eligible loops
};

/// Lower a unit that passed sema (SemaResult::success): lowering reads
/// the names sema bound, each variable's local slot or field and each
/// call's FunctionDecl, and looks none up itself. Returns a module with
/// one MirFunction per source function (methods get an implicit 'this').
MirModule lowerToMir(const frontend::TranslationUnit &unit,
                     const CompilerOptions &options, DiagnosticEngine &diags);

} // namespace mira::mir
