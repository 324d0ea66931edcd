// Binary encoding of the synthetic ISA.
//
// Serializes instruction streams to the .text bytes of a MiraObject and
// decodes them back (the disassembler half of the paper's Input Processor).
// The format is deliberately simple but genuinely byte-oriented, so the
// decoder must parse it like a real disassembler parses machine code:
//   [u16 opcode][u8 operand-count]{ [u8 kind][payload...] }*
// Payloads: Reg -> u8; Imm/Label -> i64 LE; Mem -> base u8, index u8,
// scale u8, disp i32 LE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/instruction.h"
#include "support/diagnostics.h"

namespace mira::isa {

/// Append the encoding of `inst` to `out`.
void encodeInstruction(const Instruction &inst, std::vector<std::uint8_t> &out);

/// Number of instructions in bytes[0, size), found by walking the
/// headers and operand kinds only (no validation: a decode still reports
/// malformed bytes). Sizes a decoder's output list exactly.
std::size_t countInstructions(const std::uint8_t *bytes, std::size_t size);

/// Decode the instruction at `offset` within bytes[0, size) into `out`
/// (its opcode and operands; `address` and `line` are left alone) and
/// advance `offset` past it. Returns false, with a diagnostic, on
/// truncated or invalid bytes.
bool decodeInstruction(const std::uint8_t *bytes, std::size_t size,
                       std::size_t &offset, Instruction &out,
                       DiagnosticEngine &diags);

} // namespace mira::isa
