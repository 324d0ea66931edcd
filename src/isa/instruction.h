// Machine instructions of the synthetic ISA: operands, instructions,
// printing. The encoder (encoding.h) serializes these into MiraObject
// .text bytes; the disassembler decodes them back for the binary AST.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/opcode.h"
#include "isa/registers.h"
#include "support/inline_vector.h"
#include "support/source_location.h"

namespace mira::isa {

enum class OperandKind : std::uint8_t { Reg, Imm, Mem, Label };

/// Memory operand: [base + index*scale + disp].
struct MemRef {
  Reg base = Reg::NONE;
  Reg index = Reg::NONE;
  std::uint8_t scale = 1; // 1, 2, 4, or 8
  std::int32_t disp = 0;

  bool operator==(const MemRef &o) const {
    return base == o.base && index == o.index && scale == o.scale &&
           disp == o.disp;
  }
  std::string str() const;
};

struct Operand {
  OperandKind kind = OperandKind::Imm;
  Reg reg = Reg::NONE;
  std::int64_t imm = 0; // Imm value, or Label target id
  MemRef mem;

  static Operand makeReg(Reg r);
  static Operand makeImm(std::int64_t value);
  static Operand makeMem(MemRef m);
  /// Branch/call target: label ids are resolved to addresses at layout.
  static Operand makeLabel(std::int64_t labelId);

  bool operator==(const Operand &o) const;
  std::string str() const;
};

/// An instruction's operands, kept inline: code generation never emits
/// more than two, and a decoded instruction with more (the encoded count
/// is a u8) spills to the heap.
using Operands = InlineVector<Operand, 2>;

struct Instruction {
  Opcode opcode = Opcode::NOP;
  Operands operands;
  /// Source line this instruction was generated from (the DWARF-style
  /// line-table entry written to the object, paper Sec. III-A2). 0 when
  /// compiler-generated glue without a source position.
  std::uint32_t line = 0;

  /// Address within the function's .text after layout; 0 before.
  std::uint64_t address = 0;

  Instruction() = default;
  Instruction(Opcode op, Operands ops, std::uint32_t srcLine = 0)
      : opcode(op), operands(std::move(ops)), line(srcLine) {}

  bool operator==(const Instruction &o) const {
    return opcode == o.opcode && operands == o.operands && line == o.line;
  }

  /// Encoded size in bytes (layout uses this to assign addresses).
  std::size_t encodedSize() const;

  std::string str() const; // "addpd xmm0, xmm1"
};

/// A machine function: a named, laid-out instruction sequence. Label
/// operands refer to instruction indices until layout() resolves them to
/// byte addresses.
struct MachineFunction {
  std::string name;            // qualified source name ("A::foo")
  std::vector<Instruction> instructions;

  /// Assign `address` to every instruction, starting at `base`.
  /// Returns the total encoded size.
  std::uint64_t layout(std::uint64_t base);

  std::string str() const;
};

} // namespace mira::isa
