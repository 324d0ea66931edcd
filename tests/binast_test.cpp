// Binary AST unit tests: source lines attached to every instruction,
// and the CFG, dominator and natural-loop recovery pinned on hand-built
// machine code whose shape the compiler never emits on its own.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "binast/binast.h"
#include "core/compiler.h"
#include "objfile/objfile.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace mira::binast {
namespace {

using isa::Instruction;
using isa::MachineFunction;
using isa::Opcode;
using isa::Operand;
using isa::Reg;

TEST(BinaryAst, InstructionLinesMatchLineForAddress) {
  std::vector<std::pair<std::string, const std::string *>> sources;
  for (const auto &kernel : workloads::coverageSuite())
    sources.emplace_back(kernel.name, &kernel.source);
  for (const auto &workload : workloads::figSeriesWorkloads())
    sources.emplace_back(workload.name, workload.source);
  ASSERT_EQ(sources.size(), 15u);

  for (const auto &[name, source] : sources) {
    DiagnosticEngine diags;
    auto program = core::compileProgram(*source, name + ".mc", {}, diags);
    ASSERT_TRUE(program) << name << ": " << diags.str();
    const objfile::MiraObject &object = program->object;
    ASSERT_EQ(program->binaryAst.functions.size(), object.symbols.size());
    std::size_t checked = 0;
    for (const objfile::FunctionSymbol &sym : object.symbols) {
      const AsmFunction *fn = program->binaryAst.find(sym.name);
      ASSERT_NE(fn, nullptr) << name << " " << sym.name;
      for (const AsmInstruction &ai : fn->instructions) {
        ASSERT_EQ(ai.line, object.lineForAddress(sym.offset + ai.inst.address))
            << name << " " << sym.name << " @" << ai.inst.address;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u) << name;
  }
}

Instruction inst(Opcode op, isa::Operands operands, std::uint32_t line) {
  return Instruction(op, std::move(operands), line);
}

Operand reg(Reg r) { return Operand::makeReg(r); }
Operand imm(std::int64_t value) { return Operand::makeImm(value); }

/// A jump whose target is an instruction index until resolveJumps().
Instruction jump(Opcode op, std::int64_t targetIndex, std::uint32_t line) {
  return inst(op, {imm(targetIndex)}, line);
}

/// Lay `fn` out and point every jump at the address of the instruction
/// its immediate indexes (immediates encode at a fixed width, so the
/// layout does not move).
MachineFunction resolveJumps(MachineFunction fn) {
  fn.layout(0);
  for (Instruction &i : fn.instructions)
    if (isa::isConditionalJump(i.opcode) || isa::isUnconditionalJump(i.opcode))
      i.operands[0].imm = static_cast<std::int64_t>(
          fn.instructions[static_cast<std::size_t>(i.operands[0].imm)]
              .address);
  return fn;
}

/// Outer loop B2..B6 around inner loop B4..B5, plus block B1, which
/// nothing reaches and which jumps to the exit.
MachineFunction nestedWithDeadBlock() {
  MachineFunction fn;
  fn.name = "nested";
  fn.instructions = {
      inst(Opcode::MOV, {reg(Reg::RCX), imm(0)}, 1),  // 0  B0
      jump(Opcode::JMP, 4, 1),                        // 1
      inst(Opcode::ADD, {reg(Reg::RAX), imm(7)}, 9),  // 2  B1 (unreachable)
      jump(Opcode::JMP, 13, 9),                       // 3
      inst(Opcode::CMP, {reg(Reg::RCX), imm(10)}, 2), // 4  B2 outer header
      jump(Opcode::JGE, 13, 2),                       // 5
      inst(Opcode::MOV, {reg(Reg::RDX), imm(0)}, 3),  // 6  B3
      inst(Opcode::CMP, {reg(Reg::RDX), imm(5)}, 3),  // 7  B4 inner header
      jump(Opcode::JGE, 11, 3),                       // 8
      inst(Opcode::ADD, {reg(Reg::RDX), imm(1)}, 4),  // 9  B5 inner latch
      jump(Opcode::JMP, 7, 4),                        // 10
      inst(Opcode::ADD, {reg(Reg::RCX), imm(2)}, 2),  // 11 B6 outer latch
      jump(Opcode::JMP, 4, 2),                        // 12
      inst(Opcode::RET, {}, 5),                       // 13 B7
  };
  return resolveJumps(std::move(fn));
}

/// The same nest, but the unreachable block B1 jumps into the inner
/// header, and the inner latch adds a step constant spilled through a
/// stack slot.
MachineFunction deadBlockEntersInnerLoop() {
  isa::MemRef slot;
  slot.base = Reg::RBP;
  slot.disp = -16;
  MachineFunction fn;
  fn.name = "entered";
  fn.instructions = {
      inst(Opcode::MOV, {reg(Reg::RCX), imm(0)}, 1),             // 0  B0
      jump(Opcode::JMP, 4, 1),                                   // 1
      inst(Opcode::ADD, {reg(Reg::RAX), imm(7)}, 9),             // 2  B1
      jump(Opcode::JMP, 7, 9),                                   // 3
      inst(Opcode::CMP, {reg(Reg::RCX), imm(10)}, 2),            // 4  B2
      jump(Opcode::JGE, 16, 2),                                  // 5
      inst(Opcode::MOV, {reg(Reg::RDX), imm(0)}, 3),             // 6  B3
      inst(Opcode::CMP, {reg(Reg::RDX), imm(5)}, 3),             // 7  B4
      jump(Opcode::JGE, 14, 3),                                  // 8
      inst(Opcode::MOV, {reg(Reg::R10), imm(4)}, 4),             // 9  B5
      inst(Opcode::MOV, {Operand::makeMem(slot), reg(Reg::R10)}, 4), // 10
      inst(Opcode::MOV, {reg(Reg::R11), Operand::makeMem(slot)}, 4), // 11
      inst(Opcode::ADD, {reg(Reg::RDX), reg(Reg::R11)}, 4),      // 12
      jump(Opcode::JMP, 7, 4),                                   // 13
      inst(Opcode::ADD, {reg(Reg::RCX), imm(1)}, 2),             // 14 B6
      jump(Opcode::JMP, 4, 2),                                   // 15
      inst(Opcode::RET, {}, 5),                                  // 16 B7
  };
  return resolveJumps(std::move(fn));
}

std::vector<std::uint32_t> successorsOf(const AsmBlock &block) {
  return {block.successors.begin(), block.successors.end()};
}

TEST(BinaryAst, LoopsOfHandBuiltNestsArePinned) {
  const objfile::MiraObject object = objfile::buildObject(
      {nestedWithDeadBlock(), deadBlockEntersInnerLoop()}, {});
  DiagnosticEngine diags;
  auto ast = buildBinaryAst(object, diags);
  ASSERT_TRUE(ast) << diags.str();
  ASSERT_EQ(ast->functions.size(), 2u);

  const AsmFunction &nested = ast->functions[0];
  ASSERT_EQ(nested.blocks.size(), 8u);
  const std::vector<std::vector<std::uint32_t>> successors = {
      {2}, {7}, {7, 3}, {4}, {6, 5}, {4}, {2}, {}};
  for (std::uint32_t b = 0; b < 8; ++b)
    EXPECT_EQ(successorsOf(nested.blocks[b]), successors[b]) << "block " << b;
  // Blocks are consecutive instruction ranges covering the function.
  for (std::uint32_t b = 0; b < 8; ++b) {
    EXPECT_EQ(nested.blocks[b].firstInstr,
              b ? nested.blocks[b - 1].endInstr : 0u)
        << "block " << b;
    EXPECT_LT(nested.blocks[b].firstInstr, nested.blocks[b].endInstr)
        << "block " << b;
  }
  EXPECT_EQ(nested.blocks.back().endInstr, nested.instructions.size());

  // Back edges in block order: the inner latch B5 comes first.
  ASSERT_EQ(nested.loops.size(), 2u);
  const BinaryLoop &inner = nested.loops[0];
  EXPECT_EQ(inner.headerBlock, 4u);
  EXPECT_EQ(inner.latchBlock, 5u);
  EXPECT_EQ(inner.blocks, (std::vector<std::uint32_t>{4, 5}));
  EXPECT_EQ(inner.step, 1);
  EXPECT_EQ(inner.inductionReg, Reg::RDX);
  EXPECT_EQ(inner.sourceLine, 3u);
  EXPECT_EQ(inner.headerInstrCount, 2u);
  EXPECT_EQ(inner.bodyInstrCount, 2u);
  const BinaryLoop &outer = nested.loops[1];
  EXPECT_EQ(outer.headerBlock, 2u);
  EXPECT_EQ(outer.latchBlock, 6u);
  EXPECT_EQ(outer.blocks, (std::vector<std::uint32_t>{2, 3, 4, 5, 6}));
  EXPECT_EQ(outer.step, 2);
  EXPECT_EQ(outer.sourceLine, 2u);
  EXPECT_EQ(outer.bodyInstrCount, 7u);
  EXPECT_EQ(nested.innermostLoopOf(5), 0);
  EXPECT_EQ(nested.innermostLoopOf(3), 1);
  EXPECT_EQ(nested.innermostLoopOf(1), -1);
  EXPECT_EQ(nested.innermostLoopOf(7), -1);

  // B1 has no predecessors, so it is dominated only by itself, and its
  // edge into B4 leaves B4 dominated only by itself too: B2 no longer
  // dominates the outer latch, and only the inner back edge is a loop.
  const AsmFunction &entered = ast->functions[1];
  ASSERT_EQ(entered.blocks.size(), 8u);
  EXPECT_EQ(successorsOf(entered.blocks[1]), (std::vector<std::uint32_t>{4}));
  // The instruction ranges of the blocks marked in the listing above.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {
      {0, 2}, {2, 4}, {4, 6}, {6, 7}, {7, 9}, {9, 14}, {14, 16}, {16, 17}};
  for (std::uint32_t b = 0; b < 8; ++b)
    EXPECT_EQ(std::make_pair(entered.blocks[b].firstInstr,
                             entered.blocks[b].endInstr),
              ranges[b])
        << "block " << b;
  ASSERT_EQ(entered.loops.size(), 1u);
  const BinaryLoop &only = entered.loops[0];
  EXPECT_EQ(only.headerBlock, 4u);
  EXPECT_EQ(only.latchBlock, 5u);
  EXPECT_EQ(only.blocks, (std::vector<std::uint32_t>{4, 5}));
  // The step constant reaches the add through r10 -> [rbp-16] -> r11.
  EXPECT_EQ(only.step, 4);
  EXPECT_EQ(only.inductionReg, Reg::RDX);

  for (const AsmFunction &fn : ast->functions)
    for (const AsmInstruction &ai : fn.instructions)
      EXPECT_EQ(ai.line,
                object.lineForAddress(fn.objectOffset + ai.inst.address));
}

} // namespace
} // namespace mira::binast
