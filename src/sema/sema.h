// Semantic analysis for MiniC: the one name resolver of the pipeline.
//
// Types every expression and binds every name on the AST in place: a
// variable to its local slot (Expression::slot, Statement::declSlot) or
// to a field of the method's class, a member access to its field, and a
// call to its FunctionDecl (Expression::callee, with resolvedCallee the
// qualified name). It rewrites `obj(args)` into operator() method calls
// and builds the call graph, with the callee-first function order the
// metric generator walks when combining per-function models (paper
// Sec. III-B5: handle_function_call). Lowering, the metric generator
// and the source-only baseline read these bindings instead of looking
// names up again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/ast.h"
#include "support/diagnostics.h"

namespace mira::sema {

using frontend::FunctionDecl;
using frontend::TranslationUnit;
using frontend::Type;

/// Signature of a builtin or external function known to the analyzer.
struct KnownFunction {
  std::string name;
  Type returnType;
  std::vector<Type> paramTypes;
  bool isExtern = false; // externals are opaque to static analysis
};

/// The calls between user functions, by index in
/// TranslationUnit::allFunctions().
struct CallGraph {
  /// callees[f]: the functions f calls, each once, in qualified-name order.
  std::vector<std::vector<std::uint32_t>> callees;
  /// Every function, callees before callers: a depth-first post-order
  /// that visits roots and callees in qualified-name order. Complete when
  /// analysis succeeded (MiniC models are non-recursive, like the paper's
  /// evaluation codes).
  std::vector<std::uint32_t> order;
};

struct SemaResult {
  bool success = false;
  CallGraph callGraph;
};

class SemanticAnalyzer {
public:
  explicit SemanticAnalyzer(DiagnosticEngine &diags);

  /// Analyze and annotate the unit in place.
  SemaResult analyze(TranslationUnit &unit);

  /// The table of builtin functions MiniC programs may call. Builtins are
  /// modeled as machine instructions (sqrt -> SQRTSD etc.); externals
  /// (mc_print, mc_clock, mc_rand) are opaque calls with runtime cost the
  /// static model cannot see.
  static const std::vector<KnownFunction> &knownFunctions();

private:
  DiagnosticEngine &diags_;
};

} // namespace mira::sema
