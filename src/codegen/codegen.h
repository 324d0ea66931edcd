// MIR -> machine code generation.
//
// Produces the MachineFunction placed into the MiraObject plus the
// expansion map tying every MIR instruction to the machine instructions it
// became. The simulator executes MIR semantically and retires the mapped
// machine instructions, so dynamic counts and the binary the static
// analyzer reads are two views of the same code by construction — exactly
// the relationship between a real binary and the hardware counters TAU/
// PAPI read on it.
//
// Call targets are emitted as Label operands holding a function id
// (resolved through the object's symbol table); intra-function jump
// targets are byte offsets from the function start, like x86 relative
// branches.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "codegen/regalloc.h"
#include "isa/instruction.h"
#include "mir/mir.h"

namespace mira::codegen {

/// Machine instructions charged per MIR instruction. Codegen emits the
/// prologue first, as [0, prologueEnd), and then each MIR instruction's
/// code as one contiguous run, in block and instruction order, so a run
/// is stored as its start alone.
struct ExpansionMap {
  /// Half-open range of machine instruction indices.
  struct Range {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Start of every MIR instruction's run, in order, then one past the
  /// last machine instruction.
  std::vector<std::uint32_t> runStarts;
  /// Index into runStarts of each block's first instruction.
  std::vector<std::uint32_t> blockRuns;

  /// Prologue instructions [0, prologueEnd), charged once per function
  /// entry.
  std::uint32_t prologueEnd = 0;

  /// Machine instructions of MIR instruction `inst` of block `block`.
  Range range(std::uint32_t block, std::uint32_t inst) const {
    const std::uint32_t run = blockRuns[block] + inst;
    return {runStarts[run], runStarts[run + 1]};
  }
};

struct CodegenResult {
  isa::MachineFunction machine;
  ExpansionMap map;
};

/// Extern functions get negative call ids: -(index+1) into this list.
/// Order must match objfile symbol emission.
const std::vector<std::string> &externFunctionTable();
int externCallId(const std::string &name);

/// Generate machine code for one function. `functionIds` maps qualified
/// names to their id (position in the module/object).
CodegenResult generateCode(const mir::MirFunction &fn,
                           const std::map<std::string, int> &functionIds);

} // namespace mira::codegen
