// Dynamic simulator: the reproduction's stand-in for TAU + PAPI.
//
// Executes the MIR semantically and, for every MIR instruction retired,
// charges the machine instructions codegen emitted for it (the expansion
// map). Counters therefore reflect exactly the binary the static analyzer
// reads — the relationship between a real binary and the retired-
// instruction counters PAPI exposes. Counts are per-function *inclusive*
// (callees and opaque library calls included), matching instrumentation-
// based measurement (paper Sec. IV: "measured values capture samples based
// on all instructions, including those in external library function
// calls").
//
// Fast-forward mode: loops annotated '#pragma @Simulate {ff:yes}' whose
// bodies are straight-line are charged analytically (trip count computed
// from live register values) instead of iterated; memory side effects of
// the skipped iterations are dropped, which the annotation asserts cannot
// influence later control flow. Tests verify fast-forward == exact counts
// on every workload at small sizes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/codegen.h"
#include "isa/categories.h"
#include "mir/mir.h"

namespace mira::sim {

struct SimOptions {
  bool fastForward = false;
  /// Abort when more than this many machine instructions retire
  /// (protects tests against runaway loops).
  std::uint64_t maxInstructions = 1ull << 62;
};

struct Counters {
  isa::CategoryArray<std::uint64_t> categories{};
  std::uint64_t totalInstructions = 0;
  std::uint64_t fpInstructions = 0; // PAPI_FP_INS analogue
  std::uint64_t flops = 0;          // PAPI_FP_OPS analogue (packed = 2)

  void add(const Counters &other);
};

struct FunctionProfile {
  std::uint64_t calls = 0;
  Counters inclusive;
};

/// Argument / return values for simulated functions (scalars only; MiniC
/// workloads allocate their arrays internally).
struct Value {
  std::int64_t i = 0;
  double f = 0;
  double f2 = 0; // second SSE2 lane

  static Value ofInt(std::int64_t v) { return Value{v, 0, 0}; }
  static Value ofDouble(double v) { return Value{0, v, 0}; }
};

struct SimResult {
  bool ok = false;
  std::string error;
  Value returnValue;
  Counters total;
  std::map<std::string, FunctionProfile> functions;
  std::vector<double> printed; // values passed to mc_print/mc_print_int

  double fpiOf(const std::string &fn) const;
  double fpiPerCall(const std::string &fn) const;
};

class Image;

/// Execute `function` of `image` with `args` (one Value per parameter).
SimResult run(const Image &image, const std::string &function,
              const std::vector<Value> &args, const SimOptions &options = {});

/// An immutable execution plan of one compiled program, built once from
/// its MIR and machine code, which may die afterwards. Per function it
/// holds the instructions in the simulator's compact form, with jump
/// targets and callees resolved to indices; the retire cost of every
/// instruction, of every taken branch and of the prologue, flattened from
/// the expansion map; and the loops fast-forward mode may skip. Nothing
/// in it changes while it runs, so any number of threads may run one
/// image at once.
class Image {
public:
  /// `codegen[i]` must correspond to `module.functions[i]`.
  Image(const mir::MirModule &module,
        const std::vector<codegen::CodegenResult> &codegen);
  ~Image();
  Image(const Image &) = delete;
  Image &operator=(const Image &) = delete;

private:
  struct Plan;
  class Machine;
  friend SimResult run(const Image &image, const std::string &function,
                       const std::vector<Value> &args,
                       const SimOptions &options);
  std::unique_ptr<const Plan> plan_;
};

/// Synthetic retired-instruction cost of an opaque library call — the
/// residual the static model cannot see (paper's stated error source).
/// Returns opcode counts so categories stay consistent.
const std::map<isa::Opcode, std::uint32_t> &externCallCost(
    const std::string &name);

} // namespace mira::sim
