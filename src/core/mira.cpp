#include "core/mira.h"

#include <cmath>

namespace mira::core {

std::uint8_t packOptions(const MiraOptions &options) {
  // Tripwire: adding a field to either options struct changes its size.
  // Give a model-affecting field a bit here and in unpackOptions (and
  // extend the driver_test key tests), then adjust these expected sizes.
  static_assert(sizeof(mir::CompilerOptions) == 2 &&
                    sizeof(metrics::MetricOptions) == 1,
                "options gained a field: packOptions must carry it too");
  std::uint8_t flags = 0;
  if (options.compile.compiler.optimize)
    flags |= kOptionOptimize;
  if (options.compile.compiler.vectorize)
    flags |= kOptionVectorize;
  if (options.metrics.assumeBranchesTaken)
    flags |= kOptionAssumeBranchesTaken;
  return flags;
}

MiraOptions unpackOptions(std::uint8_t flags) {
  MiraOptions options;
  options.compile.compiler.optimize = (flags & kOptionOptimize) != 0;
  options.compile.compiler.vectorize = (flags & kOptionVectorize) != 0;
  options.metrics.assumeBranchesTaken =
      (flags & kOptionAssumeBranchesTaken) != 0;
  return options;
}

sim::SimResult simulate(const CompiledProgram &program,
                        const std::string &function,
                        const std::vector<sim::Value> &args,
                        const sim::SimOptions &options) {
  return sim::run(sim::Image(program.mir, program.codegen), function, args,
                  options);
}

double relativeError(double modeled, double measured) {
  if (measured == 0)
    return modeled == 0 ? 0 : 1;
  return std::fabs(modeled - measured) / std::fabs(measured);
}

} // namespace mira::core
