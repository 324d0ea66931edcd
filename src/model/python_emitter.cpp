#include "model/python_emitter.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "arch/arch.h"

namespace mira::model {

namespace {

std::string sanitizeParam(const std::string &name) {
  std::string out;
  for (char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_';
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
    out = "p_" + out;
  return out;
}

/// Metric keys are the paper's Table II instruction categories.
std::string metricKey(isa::Opcode op) {
  return isa::categoryName(arch::haswellDescription().categoryOf(op));
}

/// Emit a single function's model (Fig. 5-style output).
std::string emitPythonFunction(const PerformanceModel &model,
                               const FunctionModel &fn) {
  // The model function's signature: source parameters that are actually
  // used, plus any unbound parameters (annotation variables like y_16).
  std::set<std::string> params = fn.parameters();
  for (const CallStep &step : fn.calls) {
    for (const std::string &p : model.requiredParameters(step.callee))
      if (!step.argBindings.count(p))
        params.insert(p);
  }

  std::string out;
  out += "def " + fn.modelName + "(";
  bool first = true;
  for (const std::string &p : params) {
    if (!first)
      out += ", ";
    out += sanitizeParam(p);
    first = false;
  }
  out += "):\n";
  out += "    metrics = {}\n";
  if (!fn.exact)
    for (const std::string &note : fn.notes)
      out += "    # NOTE: " + note + "\n";

  // Merge equal keys per step for readability.
  for (const CountStep &step : fn.counts) {
    if (!step.comment.empty())
      out += "    # " + step.comment + "\n";
    std::map<std::string, std::int64_t> byKey;
    for (const auto &[op, n] : step.opcodes)
      byKey[metricKey(op)] += n;
    std::string mult = step.multiplier.toPython();
    for (const auto &[key, n] : byKey) {
      out += "    _bump(metrics, '" + key + "', " + std::to_string(n) +
             " * (" + mult + "))\n";
    }
  }
  for (const CallStep &step : fn.calls) {
    const FunctionModel *callee = model.find(step.callee);
    std::string calleeName = callee ? callee->modelName : step.callee;
    out += "    # call at line " + std::to_string(step.line) + "\n";
    out += "    _callee = " + calleeName + "(";
    // Callee arguments in its parameter order.
    std::set<std::string> calleeParams;
    if (callee) {
      calleeParams = callee->parameters();
      for (const CallStep &inner : callee->calls)
        for (const std::string &p : model.requiredParameters(inner.callee))
          if (!inner.argBindings.count(p))
            calleeParams.insert(p);
    }
    bool firstArg = true;
    for (const std::string &p : calleeParams) {
      if (!firstArg)
        out += ", ";
      firstArg = false;
      auto it = step.argBindings.find(p);
      if (it != step.argBindings.end())
        out += sanitizeParam(p) + "=(" + it->second.toPython() + ")";
      else
        out += sanitizeParam(p) + "=" + sanitizeParam(p);
    }
    out += ")\n";
    out += "    handle_function_call(metrics, _callee, " +
           step.multiplier.toPython() + ")\n";
  }
  out += "    return metrics\n";
  return out;
}

} // namespace

std::string emitPython(const PerformanceModel &model) {
  std::string out;
  out += "# Performance model generated by Mira";
  if (!model.sourceFile.empty())
    out += " from " + model.sourceFile;
  out += "\n";
  out += "# Keys are instruction categories; values are estimated "
         "executed-instruction counts.\n\n";
  out += "def _bump(metrics, key, count):\n";
  out += "    metrics[key] = metrics.get(key, 0) + count\n\n";
  out += "def handle_function_call(caller, callee, iterations):\n";
  out += "    for key, value in callee.items():\n";
  out += "        caller[key] = caller.get(key, 0) + value * iterations\n";
  out += "    return caller\n\n";

  // Emit callees before callers (functions is kept topologically sorted
  // by the metric generator; Python needs definitions before use at call
  // time only, so any order works, but sorted reads better).
  for (const FunctionModel &fn : model.functions) {
    out += emitPythonFunction(model, fn);
    out += "\n";
  }

  out += "if __name__ == '__main__':\n";
  out += "    import json, sys\n";
  out += "    args = dict(arg.split('=') for arg in sys.argv[2:])\n";
  out += "    fn = globals()[sys.argv[1]]\n";
  out += "    print(json.dumps(fn(**{k: int(v) for k, v in args.items()}),"
         " indent=2))\n";
  return out;
}

} // namespace mira::model
