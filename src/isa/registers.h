// Register file of the synthetic x86-64-like ISA.
//
// 16 general-purpose 64-bit registers and 16 XMM vector registers (128-bit,
// two doubles) — the register model the paper's instruction categories
// assume (e.g. "SSE2 data movement ... between XMM registers and memory").
#pragma once

#include <cstdint>
#include <string>

namespace mira::isa {

enum class Reg : std::uint8_t {
  // general purpose
  RAX, RBX, RCX, RDX, RSI, RDI, RBP, RSP,
  R8, R9, R10, R11, R12, R13, R14, R15,
  // SSE2 vector registers
  XMM0, XMM1, XMM2, XMM3, XMM4, XMM5, XMM6, XMM7,
  XMM8, XMM9, XMM10, XMM11, XMM12, XMM13, XMM14, XMM15,
  NONE,
};

inline constexpr int kNumGPR = 16;

inline Reg gpr(int index) { return static_cast<Reg>(index); }
inline Reg xmm(int index) { return static_cast<Reg>(kNumGPR + index); }

std::string regName(Reg r);

} // namespace mira::isa
