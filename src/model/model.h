// The performance model Mira generates (paper Sec. III-C, Fig. 5).
//
// One FunctionModel per source function: a list of counting steps
// (parametric multiplier x per-execution opcode histogram) and call steps
// (parametric call multiplicity + argument bindings, combined like the
// generated Python's handle_function_call). The model is emitted as
// genuine Python source (python_emitter.h) and is also evaluable
// in-process so the benchmarks need no Python interpreter.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "isa/categories.h"
#include "isa/opcode.h"
#include "symbolic/expr.h"

namespace mira::model {

using symbolic::Env;
using symbolic::Expr;

/// multiplier * opcode histogram.
struct CountStep {
  Expr multiplier;
  isa::OpcodeHistogram opcodes;
  std::string comment; // e.g. "loop body line 12 (vectorized main)"
};

/// Combine a callee model: counts += multiplier * callee(argBindings).
struct CallStep {
  Expr multiplier;
  std::string callee; // qualified source name
  /// callee parameter name -> expression over caller parameters. Unbound
  /// callee parameters become user-supplied model parameters (the paper's
  /// y_16 pattern).
  std::map<std::string, Expr> argBindings;
  std::uint32_t line = 0;
};

struct FunctionModel {
  std::string sourceName; // "A::foo"
  std::string modelName;  // "A_foo_2"
  std::vector<std::string> paramNames; // source parameter names (ints)
  std::vector<CountStep> counts;
  std::vector<CallStep> calls;
  /// All free parameters of the expressions.
  std::set<std::string> parameters() const;
  bool exact = true;
  std::vector<std::string> notes; // annotation requests, approximations
};

/// Evaluated counts for one function (inclusive of callees).
struct EvaluatedCounts {
  std::map<isa::Opcode, double> opcodes;
  double totalInstructions = 0;
  double fpInstructions = 0; // scalar+packed SSE/SSE2 arithmetic
  double flops = 0;

  void add(const EvaluatedCounts &other, double scale);
  isa::CategoryArray<double> categories(const arch::ArchDescription &desc)
      const;
};

class PerformanceModel {
public:
  std::vector<FunctionModel> functions;
  std::string sourceFile;

  const FunctionModel *find(const std::string &sourceName) const;
  FunctionModel *find(const std::string &sourceName);

  /// Evaluate a function model (inclusive). Unbound parameters make the
  /// evaluation fail with a message listing them.
  std::optional<EvaluatedCounts> evaluate(const std::string &sourceName,
                                          const Env &env,
                                          std::string *error = nullptr) const;

  /// All model parameters a caller of `sourceName` must supply (its own
  /// expression parameters plus unbound callee parameters).
  std::set<std::string> requiredParameters(
      const std::string &sourceName) const;

private:
  std::optional<EvaluatedCounts> evaluateInner(const FunctionModel &fn,
                                               const Env &env,
                                               std::string *error,
                                               int depth) const;
};

} // namespace mira::model
