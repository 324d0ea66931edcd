// Static control part (SCoP) extraction from for-loops.
//
// Recognizes counted loops of the form
//   for (var = init; var < / <= bound; var++ / var += c)
// and converts init/bound to affine expressions over other variables
// (which become model parameters if not resolvable — paper Sec. III-B2).
// Loops that do not fit report a reason; Mira then requires a user
// annotation (paper Listing 3/6) or falls back to while-loop handling.
// Variable names become Symbols of the calling thread's ExprInterner
// here, where the affine forms are built.
#pragma once

#include <optional>
#include <string>

#include "frontend/ast.h"
#include "polyhedral/affine.h"

namespace mira::sema {

struct LoopInfo {
  bool recognized = false; // structured counted loop with affine SCoP
  symbolic::Symbol var{};  // the loop variable, when recognized
  polyhedral::AffineExpr lowerBound; // var >= lowerBound
  polyhedral::AffineExpr upperBound; // var <= upperBound (normalized)
  std::int64_t step = 1;
  std::string failReason; // set when !recognized
};

/// Convert a MiniC expression to an affine expression: literals, variable
/// references (as symbols), +, -, unary minus, multiplication by integer
/// constants and exact division by them. nullopt for anything else
/// (calls, indexing, floats, min/max — the paper's Listing 3 exceptions),
/// and when a coefficient or quotient overflows int64.
std::optional<polyhedral::AffineExpr>
exprToAffine(const frontend::Expression &expr);

/// Analyze a StmtKind::For statement.
LoopInfo analyzeForLoop(const frontend::Statement &forStmt);

} // namespace mira::sema
