// Opcodes of the synthetic x86-64-like ISA.
//
// The compiler back-end emits these; the disassembler decodes them back
// into the binary AST; the simulator retires them (standing in for PAPI's
// retired-instruction counters); the architecture description file maps
// each to one of the 64 categories (categories.h), with Mira's defaults
// given by defaultCategory().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "isa/categories.h"
#include "support/inline_vector.h"

namespace mira::isa {

enum class Opcode : std::uint16_t {
  // ---- integer data transfer
  MOV,    // reg<-reg/imm/mem, mem<-reg/imm
  MOVZX,
  PUSH,
  POP,
  // ---- integer arithmetic
  ADD,
  SUB,
  IMUL,
  IDIV,
  INC,
  DEC,
  NEG,
  CMP,
  CDQ, // sign-extend for division (counted as 64-bit mode like CQO)
  // ---- logical / shift / bit
  AND,
  OR,
  XOR,
  NOT,
  SHL,
  SHR,
  SAR,
  TEST,
  SETcc,
  // ---- misc integer
  LEA,
  NOP,
  // ---- control transfer
  JMP,
  JE,
  JNE,
  JL,
  JLE,
  JG,
  JGE,
  CALL,
  RET,
  // ---- 64-bit mode
  CQO,
  MOVSXD,
  // ---- SSE2 data movement
  MOVSD_RM, // load: xmm <- mem
  MOVSD_MR, // store: mem <- xmm
  MOVSD_RR, // xmm <- xmm
  MOVAPD_RM,
  MOVAPD_MR,
  MOVAPD_RR,
  MOVUPD_RM,
  MOVUPD_MR,
  MOVQ_XR, // xmm <- gpr bit pattern
  MOVQ_RX, // gpr <- xmm bit pattern
  // ---- SSE2 scalar arithmetic (double) — FPI contributors
  ADDSD,
  SUBSD,
  MULSD,
  DIVSD,
  SQRTSD,
  MAXSD,
  MINSD,
  // ---- SSE2 packed arithmetic (double) — FPI contributors
  ADDPD,
  SUBPD,
  MULPD,
  DIVPD,
  SQRTPD,
  MAXPD,
  MINPD,
  HADDPD, // horizontal add used to reduce vector accumulators
  // ---- SSE2 compare / logical / shuffle
  COMISD,
  UCOMISD,
  ANDPD,
  XORPD,
  SHUFPD,
  UNPCKLPD,
  UNPCKHPD,
  // ---- SSE2 conversion
  CVTSI2SD,
  CVTTSD2SI,
  CVTSD2SS,
  CVTSS2SD,
  // ---- SSE scalar single (float workloads)
  MOVSS_RM,
  MOVSS_MR,
  MOVSS_RR,
  ADDSS,
  SUBSS,
  MULSS,
  DIVSS,
  SQRTSS,
  CVTSI2SS,
  CVTTSS2SI,
  kCount_,
};

inline constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(Opcode::kCount_);

/// Per-execution opcode counts: (opcode, count) pairs sorted by opcode,
/// each opcode at most once. The bridge builds one per line query, a
/// model's CountStep stores it, and the model codec writes and reads the
/// entries in this order. Up to four entries (most steps: a statement's
/// line rarely holds more distinct opcodes) are stored inline.
using OpcodeHistogram = InlineVector<std::pair<Opcode, std::int64_t>, 4>;

/// Restore the OpcodeHistogram invariant on a list of entries in any
/// order: sort by opcode and fold repeated opcodes into one entry whose
/// count is their sum.
void normalizeHistogram(OpcodeHistogram &histogram);

/// Mnemonic, e.g. "addpd".
std::string opcodeName(Opcode op);
std::optional<Opcode> opcodeFromName(const std::string &name);

/// Mira's default opcode -> category table; the architecture description
/// file may override individual assignments.
InstrCategory defaultCategory(Opcode op);

/// Floating-point instruction? (PAPI_FP_INS semantics: scalar or packed
/// SSE/SSE2 arithmetic, the metric of paper Tables III-V.)
bool isFloatingPointArith(Opcode op);
/// Number of double-precision FP operations performed (for packed ops,
/// the vector width 2; used for FLOP-based derived metrics).
int flopCount(Opcode op);
/// Control transfer (ends a basic block)?
bool isControlTransfer(Opcode op);
bool isConditionalJump(Opcode op);
bool isUnconditionalJump(Opcode op);
bool isCall(Opcode op);
bool isReturn(Opcode op);

} // namespace mira::isa
