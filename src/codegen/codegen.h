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

/// Machine instructions charged per MIR instruction.
struct ExpansionMap {
  /// expansion[blockId][instIdx] -> indices into MachineFunction
  std::vector<std::vector<std::vector<std::uint32_t>>> expansion;
  /// Prologue instructions, charged once per function entry.
  std::vector<std::uint32_t> prologue;
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
