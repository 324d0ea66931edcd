// Binary AST: the disassembled view of a MiraObject.
//
// Mirrors the paper's ROSE binary AST (Sec. III-A, Fig. 3): AsmFunction
// nodes contain AsmBlock nodes containing AsmInstruction nodes, each
// instruction annotated with the source line recovered from .debug_line.
// On top of the plain tree this module recovers the machine CFG and
// natural loops (back edges, induction steps, bound operands) — the
// binary-side loop structure Mira must match against source loops to
// model vectorized main/remainder loop pairs correctly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "objfile/objfile.h"
#include "support/diagnostics.h"
#include "support/inline_vector.h"

namespace mira::binast {

struct AsmInstruction {
  isa::Instruction inst;   // address = function-relative byte offset
  std::uint32_t line = 0;  // from .debug_line (0 = unknown)
};

/// A basic block: a run of its function's instructions, which are laid
/// out in address order, so the run is an index range.
struct AsmBlock {
  std::uint32_t id = 0;
  std::uint64_t startAddress = 0;
  /// Its instructions: AsmFunction::instructions[firstInstr, endInstr).
  std::uint32_t firstInstr = 0;
  std::uint32_t endInstr = 0;
  /// Block ids, jump target before fall-through; a block ends in at most
  /// one jump, so there are at most two.
  InlineVector<std::uint32_t, 2> successors;

  std::uint32_t instrCount() const { return endInstr - firstInstr; }
};

/// A natural loop recovered from the machine CFG.
struct BinaryLoop {
  std::uint32_t headerBlock = 0;
  std::uint32_t latchBlock = 0;
  std::vector<std::uint32_t> blocks; // sorted ids, including header/latch
  std::int64_t step = 0;            // induction increment found in latch
  isa::Reg inductionReg = isa::Reg::NONE;
  std::uint32_t sourceLine = 0;     // line of the header's compare
  /// Instruction counts split the way static counting needs them:
  /// header executes trips+1 times, body+latch execute trips times.
  std::size_t headerInstrCount = 0;
  std::size_t bodyInstrCount = 0; // includes latch

  bool contains(std::uint32_t blockId) const;
};

struct AsmFunction {
  std::string name;
  int id = 0;
  std::uint64_t objectOffset = 0;
  std::vector<AsmInstruction> instructions;
  std::vector<AsmBlock> blocks;
  std::vector<BinaryLoop> loops;

  /// Per-line instruction counts across the whole function.
  std::map<std::uint32_t, std::size_t> lineCounts() const;
  /// Innermost loop containing `blockId` (most deeply nested), or -1.
  int innermostLoopOf(std::uint32_t blockId) const;
};

struct BinaryAst {
  std::vector<AsmFunction> functions;

  const AsmFunction *find(const std::string &name) const;
};

/// Disassemble the object into a binary AST (decoding .text through the
/// instruction decoder, attaching lines, building CFG and loops).
std::optional<BinaryAst> buildBinaryAst(const objfile::MiraObject &object,
                                        DiagnosticEngine &diags);

} // namespace mira::binast
