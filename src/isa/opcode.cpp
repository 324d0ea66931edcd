#include "isa/opcode.h"

#include <algorithm>
#include <map>

namespace mira::isa {

namespace {
struct OpcodeInfo {
  const char *name;
  InstrCategory category;
  int flops; // double-precision FP operations retired
};

const OpcodeInfo &info(Opcode op) {
  static const OpcodeInfo table[] = {
      {"mov", InstrCategory::IntDataTransfer, 0},
      {"movzx", InstrCategory::IntDataTransfer, 0},
      {"push", InstrCategory::IntDataTransfer, 0},
      {"pop", InstrCategory::IntDataTransfer, 0},
      {"add", InstrCategory::IntArith, 0},
      {"sub", InstrCategory::IntArith, 0},
      {"imul", InstrCategory::IntArith, 0},
      {"idiv", InstrCategory::IntArith, 0},
      {"inc", InstrCategory::IntArith, 0},
      {"dec", InstrCategory::IntArith, 0},
      {"neg", InstrCategory::IntArith, 0},
      {"cmp", InstrCategory::IntArith, 0},
      {"cdq", InstrCategory::Mode64Bit, 0},
      {"and", InstrCategory::IntLogical, 0},
      {"or", InstrCategory::IntLogical, 0},
      {"xor", InstrCategory::IntLogical, 0},
      {"not", InstrCategory::IntLogical, 0},
      {"shl", InstrCategory::IntShiftRotate, 0},
      {"shr", InstrCategory::IntShiftRotate, 0},
      {"sar", InstrCategory::IntShiftRotate, 0},
      {"test", InstrCategory::IntBitByte, 0},
      {"setcc", InstrCategory::IntBitByte, 0},
      {"lea", InstrCategory::IntMisc, 0},
      {"nop", InstrCategory::IntMisc, 0},
      {"jmp", InstrCategory::IntControlTransfer, 0},
      {"je", InstrCategory::IntControlTransfer, 0},
      {"jne", InstrCategory::IntControlTransfer, 0},
      {"jl", InstrCategory::IntControlTransfer, 0},
      {"jle", InstrCategory::IntControlTransfer, 0},
      {"jg", InstrCategory::IntControlTransfer, 0},
      {"jge", InstrCategory::IntControlTransfer, 0},
      {"call", InstrCategory::IntControlTransfer, 0},
      {"ret", InstrCategory::IntControlTransfer, 0},
      {"cqo", InstrCategory::Mode64Bit, 0},
      {"movsxd", InstrCategory::Mode64Bit, 0},
      {"movsd", InstrCategory::SSE2DataMovement, 0},   // load
      {"movsd", InstrCategory::SSE2DataMovement, 0},   // store
      {"movsd", InstrCategory::SSE2DataMovement, 0},   // reg-reg
      {"movapd", InstrCategory::SSE2DataMovement, 0},  // load
      {"movapd", InstrCategory::SSE2DataMovement, 0},  // store
      {"movapd", InstrCategory::SSE2DataMovement, 0},  // reg-reg
      {"movupd", InstrCategory::SSE2DataMovement, 0},
      {"movupd", InstrCategory::SSE2DataMovement, 0},
      {"movq", InstrCategory::SSE2DataMovement, 0},
      {"movq", InstrCategory::SSE2DataMovement, 0},
      {"addsd", InstrCategory::SSE2PackedArith, 1},
      {"subsd", InstrCategory::SSE2PackedArith, 1},
      {"mulsd", InstrCategory::SSE2PackedArith, 1},
      {"divsd", InstrCategory::SSE2PackedArith, 1},
      {"sqrtsd", InstrCategory::SSE2PackedArith, 1},
      {"maxsd", InstrCategory::SSE2PackedArith, 1},
      {"minsd", InstrCategory::SSE2PackedArith, 1},
      {"addpd", InstrCategory::SSE2PackedArith, 2},
      {"subpd", InstrCategory::SSE2PackedArith, 2},
      {"mulpd", InstrCategory::SSE2PackedArith, 2},
      {"divpd", InstrCategory::SSE2PackedArith, 2},
      {"sqrtpd", InstrCategory::SSE2PackedArith, 2},
      {"maxpd", InstrCategory::SSE2PackedArith, 2},
      {"minpd", InstrCategory::SSE2PackedArith, 2},
      {"haddpd", InstrCategory::SSE2PackedArith, 1},
      {"comisd", InstrCategory::SSE2Compare, 0},
      {"ucomisd", InstrCategory::SSE2Compare, 0},
      {"andpd", InstrCategory::SSE2Logical, 0},
      {"xorpd", InstrCategory::SSE2Logical, 0},
      {"shufpd", InstrCategory::SSE2ShuffleUnpack, 0},
      {"unpcklpd", InstrCategory::SSE2ShuffleUnpack, 0},
      {"unpckhpd", InstrCategory::SSE2ShuffleUnpack, 0},
      {"cvtsi2sd", InstrCategory::SSE2Conversion, 0},
      {"cvttsd2si", InstrCategory::SSE2Conversion, 0},
      {"cvtsd2ss", InstrCategory::SSE2Conversion, 0},
      {"cvtss2sd", InstrCategory::SSE2Conversion, 0},
      {"movss", InstrCategory::SSEDataTransfer, 0},
      {"movss", InstrCategory::SSEDataTransfer, 0},
      {"movss", InstrCategory::SSEDataTransfer, 0},
      {"addss", InstrCategory::SSEPackedArith, 1},
      {"subss", InstrCategory::SSEPackedArith, 1},
      {"mulss", InstrCategory::SSEPackedArith, 1},
      {"divss", InstrCategory::SSEPackedArith, 1},
      {"sqrtss", InstrCategory::SSEPackedArith, 1},
      {"cvtsi2ss", InstrCategory::SSEConversion, 0},
      {"cvttss2si", InstrCategory::SSEConversion, 0},
  };
  static_assert(sizeof(table) / sizeof(table[0]) == kNumOpcodes,
                "opcode info table out of sync with Opcode enum");
  return table[static_cast<std::size_t>(op)];
}
} // namespace

void normalizeHistogram(OpcodeHistogram &histogram) {
  std::sort(histogram.begin(), histogram.end(),
            [](const auto &a, const auto &b) { return a.first < b.first; });
  auto out = histogram.begin();
  for (auto it = histogram.begin(); it != histogram.end(); ++it) {
    if (out != histogram.begin() && (out - 1)->first == it->first)
      (out - 1)->second += it->second;
    else
      *out++ = *it;
  }
  histogram.erase(out, histogram.end());
}

std::string opcodeName(Opcode op) { return info(op).name; }

std::optional<Opcode> opcodeFromName(const std::string &name) {
  for (std::size_t i = 0; i < kNumOpcodes; ++i) {
    Opcode op = static_cast<Opcode>(i);
    if (opcodeName(op) == name)
      return op;
  }
  return std::nullopt;
}

InstrCategory defaultCategory(Opcode op) { return info(op).category; }

bool isFloatingPointArith(Opcode op) { return info(op).flops > 0; }

int flopCount(Opcode op) { return info(op).flops; }

bool isControlTransfer(Opcode op) {
  switch (op) {
  case Opcode::JMP:
  case Opcode::JE:
  case Opcode::JNE:
  case Opcode::JL:
  case Opcode::JLE:
  case Opcode::JG:
  case Opcode::JGE:
  case Opcode::CALL:
  case Opcode::RET:
    return true;
  default:
    return false;
  }
}

bool isConditionalJump(Opcode op) {
  switch (op) {
  case Opcode::JE:
  case Opcode::JNE:
  case Opcode::JL:
  case Opcode::JLE:
  case Opcode::JG:
  case Opcode::JGE:
    return true;
  default:
    return false;
  }
}

bool isUnconditionalJump(Opcode op) { return op == Opcode::JMP; }
bool isCall(Opcode op) { return op == Opcode::CALL; }
bool isReturn(Opcode op) { return op == Opcode::RET; }

namespace {
const char *kCategoryNames[] = {
    "Integer data transfer instruction",
    "Integer arithmetic instruction",
    "Integer decimal arithmetic instruction",
    "Integer logical instruction",
    "Integer shift and rotate instruction",
    "Integer bit and byte instruction",
    "Integer control transfer instruction",
    "Integer string instruction",
    "Integer I/O instruction",
    "Integer enter and leave instruction",
    "Integer flag control instruction",
    "Integer segment register instruction",
    "Integer miscellaneous instruction",
    "Integer random number instruction",
    "x87 FPU data transfer instruction",
    "x87 FPU basic arithmetic instruction",
    "x87 FPU comparison instruction",
    "x87 FPU transcendental instruction",
    "x87 FPU load constant instruction",
    "x87 FPU control instruction",
    "MMX data transfer instruction",
    "MMX conversion instruction",
    "MMX packed arithmetic instruction",
    "MMX comparison instruction",
    "MMX logical instruction",
    "MMX shift and rotate instruction",
    "MMX state management instruction",
    "SSE data transfer instruction",
    "SSE packed arithmetic instruction",
    "SSE comparison instruction",
    "SSE logical instruction",
    "SSE shuffle and unpack instruction",
    "SSE conversion instruction",
    "SSE MXCSR state management instruction",
    "SSE 64-bit SIMD integer instruction",
    "SSE cacheability control instruction",
    "SSE2 data movement instruction",
    "SSE2 packed arithmetic instruction",
    "SSE2 logical instruction",
    "SSE2 compare instruction",
    "SSE2 shuffle and unpack instruction",
    "SSE2 conversion instruction",
    "SSE2 packed single-precision conversion instruction",
    "SSE2 128-bit SIMD integer instruction",
    "SSE2 cacheability control instruction",
    "SSE3 floating-point arithmetic instruction",
    "SSE3 horizontal arithmetic instruction",
    "SSSE3 arithmetic instruction",
    "SSE4 dword multiply instruction",
    "SSE4 floating-point dot product instruction",
    "SSE4 streaming load instruction",
    "AVX arithmetic instruction",
    "AVX data movement instruction",
    "FMA arithmetic instruction",
    "Cryptographic instruction",
    "Bit manipulation instruction",
    "64-bit mode instruction",
    "System instruction",
    "VMX instruction",
    "SMX instruction",
    "Transactional memory instruction",
    "Virtualization instruction",
    "Power management instruction",
    "Misc Instruction",
};
static_assert(sizeof(kCategoryNames) / sizeof(kCategoryNames[0]) ==
                  kNumCategories,
              "category name table out of sync");
} // namespace

std::string categoryName(InstrCategory category) {
  return kCategoryNames[static_cast<std::size_t>(category)];
}

std::optional<InstrCategory> categoryFromName(const std::string &name) {
  for (std::size_t i = 0; i < kNumCategories; ++i)
    if (name == kCategoryNames[i])
      return static_cast<InstrCategory>(i);
  return std::nullopt;
}

} // namespace mira::isa
