#include <gtest/gtest.h>

#include <random>

#include "isa/encoding.h"
#include "isa/instruction.h"
#include "objfile/objfile.h"

namespace mira::isa {
namespace {

TEST(Opcode, NamesRoundTrip) {
  for (std::size_t i = 0; i < kNumOpcodes; ++i) {
    Opcode op = static_cast<Opcode>(i);
    auto back = opcodeFromName(opcodeName(op));
    ASSERT_TRUE(back.has_value()) << opcodeName(op);
    // Several opcodes share mnemonics (movsd load/store/reg-reg);
    // round-trip must return an opcode with the same name.
    EXPECT_EQ(opcodeName(*back), opcodeName(op));
  }
}

TEST(Opcode, CategoriesMatchPaperTableII) {
  EXPECT_EQ(categoryName(defaultCategory(Opcode::ADDPD)),
            "SSE2 packed arithmetic instruction");
  EXPECT_EQ(categoryName(defaultCategory(Opcode::MOVSD_RM)),
            "SSE2 data movement instruction");
  EXPECT_EQ(categoryName(defaultCategory(Opcode::JMP)),
            "Integer control transfer instruction");
  EXPECT_EQ(categoryName(defaultCategory(Opcode::MOV)),
            "Integer data transfer instruction");
  EXPECT_EQ(categoryName(defaultCategory(Opcode::ADD)),
            "Integer arithmetic instruction");
  EXPECT_EQ(categoryName(defaultCategory(Opcode::CQO)),
            "64-bit mode instruction");
}

TEST(Opcode, SixtyFourCategories) {
  EXPECT_EQ(kNumCategories, 64u);
  // Every category has a unique printable name.
  std::set<std::string> names;
  for (std::size_t i = 0; i < kNumCategories; ++i)
    names.insert(categoryName(static_cast<InstrCategory>(i)));
  EXPECT_EQ(names.size(), kNumCategories);
}

TEST(Opcode, FlopAccounting) {
  EXPECT_TRUE(isFloatingPointArith(Opcode::ADDSD));
  EXPECT_TRUE(isFloatingPointArith(Opcode::MULPD));
  EXPECT_FALSE(isFloatingPointArith(Opcode::MOVSD_RM));
  EXPECT_FALSE(isFloatingPointArith(Opcode::UCOMISD));
  EXPECT_EQ(flopCount(Opcode::ADDSD), 1);
  EXPECT_EQ(flopCount(Opcode::ADDPD), 2); // packed = two lanes
}

TEST(Opcode, ControlTransferClassification) {
  EXPECT_TRUE(isControlTransfer(Opcode::RET));
  EXPECT_TRUE(isConditionalJump(Opcode::JLE));
  EXPECT_FALSE(isConditionalJump(Opcode::JMP));
  EXPECT_TRUE(isUnconditionalJump(Opcode::JMP));
  EXPECT_TRUE(isCall(Opcode::CALL));
  EXPECT_FALSE(isControlTransfer(Opcode::ADD));
}

Instruction randomInstruction(std::mt19937 &rng) {
  std::uniform_int_distribution<int> opDist(0, static_cast<int>(kNumOpcodes) -
                                                   1);
  std::uniform_int_distribution<int> kindDist(0, 3);
  std::uniform_int_distribution<int> regDist(0, 31);
  std::uniform_int_distribution<std::int64_t> immDist(-1'000'000, 1'000'000);
  std::uniform_int_distribution<int> nopsDist(0, 3);

  Instruction inst;
  inst.opcode = static_cast<Opcode>(opDist(rng));
  int nops = nopsDist(rng);
  for (int i = 0; i < nops; ++i) {
    switch (kindDist(rng)) {
    case 0:
      inst.operands.push_back(Operand::makeReg(static_cast<Reg>(regDist(rng))));
      break;
    case 1:
      inst.operands.push_back(Operand::makeImm(immDist(rng)));
      break;
    case 2: {
      MemRef m;
      m.base = static_cast<Reg>(regDist(rng) % 16);
      m.index = static_cast<Reg>(regDist(rng) % 16);
      m.scale = 8;
      m.disp = static_cast<std::int32_t>(immDist(rng) % 4096);
      inst.operands.push_back(Operand::makeMem(m));
      break;
    }
    default:
      inst.operands.push_back(Operand::makeLabel(immDist(rng)));
      break;
    }
  }
  return inst;
}

/// Decode a whole function body laid out from address 0, the way
/// binast walks a symbol's bytes.
std::optional<std::vector<Instruction>>
decodeAll(const std::vector<std::uint8_t> &bytes, DiagnosticEngine &diags) {
  std::vector<Instruction> out;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    Instruction &inst = out.emplace_back();
    inst.address = offset;
    if (!decodeInstruction(bytes.data(), bytes.size(), offset, inst, diags))
      return std::nullopt;
  }
  return out;
}

class EncodingRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EncodingRoundTrip, RandomStreamsDecodeExactly) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  MachineFunction fn;
  fn.name = "roundtrip";
  for (int i = 0; i < 200; ++i)
    fn.instructions.push_back(randomInstruction(rng));
  fn.layout(0);

  std::vector<std::uint8_t> bytes;
  for (const Instruction &inst : fn.instructions)
    encodeInstruction(inst, bytes);
  EXPECT_EQ(countInstructions(bytes.data(), bytes.size()),
            fn.instructions.size());
  DiagnosticEngine diags;
  auto decoded = decodeAll(bytes, diags);
  ASSERT_TRUE(decoded.has_value()) << diags.str();
  ASSERT_EQ(decoded->size(), fn.instructions.size());
  for (std::size_t i = 0; i < decoded->size(); ++i) {
    EXPECT_EQ((*decoded)[i].opcode, fn.instructions[i].opcode) << i;
    EXPECT_EQ((*decoded)[i].operands, fn.instructions[i].operands) << i;
    EXPECT_EQ((*decoded)[i].address, fn.instructions[i].address) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Encoding, EncodedSizeMatchesDeclaredSize) {
  std::mt19937 rng(7);
  for (int i = 0; i < 100; ++i) {
    Instruction inst = randomInstruction(rng);
    std::vector<std::uint8_t> bytes;
    encodeInstruction(inst, bytes);
    EXPECT_EQ(bytes.size(), inst.encodedSize());
  }
}

TEST(Encoding, TruncatedBytesAreDiagnosed) {
  Instruction inst(Opcode::ADD, {Operand::makeReg(Reg::RAX),
                                 Operand::makeImm(42)});
  std::vector<std::uint8_t> bytes;
  encodeInstruction(inst, bytes);
  bytes.resize(bytes.size() - 3); // chop the immediate
  DiagnosticEngine diags;
  auto decoded = decodeAll(bytes, diags);
  EXPECT_FALSE(decoded.has_value());
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Encoding, InvalidOpcodeDiagnosed) {
  std::vector<std::uint8_t> bytes = {0xFF, 0xFF, 0x00}; // opcode 0xFFFF
  DiagnosticEngine diags;
  std::size_t off = 0;
  Instruction inst;
  EXPECT_FALSE(decodeInstruction(bytes.data(), bytes.size(), off, inst, diags));
  EXPECT_TRUE(diags.containsMessage("invalid opcode"));
}

TEST(Encoding, OperandsPastTheInlineTwoSpillAndRoundTrip) {
  // Codegen never emits more than two operands, but the encoded count is
  // a u8: a decoded instruction with more moves its operands to the heap.
  MemRef m;
  m.base = Reg::RBP;
  m.index = Reg::RCX;
  m.scale = 8;
  m.disp = -24;
  Instruction inst(Opcode::LEA,
                   {Operand::makeReg(Reg::RAX), Operand::makeMem(m),
                    Operand::makeImm(-7)},
                   9);
  ASSERT_EQ(inst.operands.size(), 3u);
  std::vector<std::uint8_t> bytes;
  encodeInstruction(inst, bytes);
  EXPECT_EQ(bytes.size(), inst.encodedSize());
  DiagnosticEngine diags;
  std::size_t off = 0;
  Instruction decoded;
  decoded.line = inst.line; // lines travel in the line table, not .text
  ASSERT_TRUE(
      decodeInstruction(bytes.data(), bytes.size(), off, decoded, diags))
      << diags.str();
  EXPECT_EQ(off, bytes.size());
  EXPECT_EQ(decoded, inst);
  // Copies and moves of the spilled list keep every operand.
  Instruction copy = decoded;
  EXPECT_EQ(copy, inst);
  Instruction moved = std::move(copy);
  EXPECT_EQ(moved, inst);
  EXPECT_EQ(moved.operands[2].imm, -7);
}

// --------------------------------------------------------------- objfile

TEST(ObjFile, SerializeParseRoundTrip) {
  MachineFunction fn;
  fn.name = "f";
  fn.instructions.emplace_back(
      Opcode::MOV, Operands{Operand::makeReg(Reg::RAX), Operand::makeImm(1)},
      3);
  fn.instructions.emplace_back(
      Opcode::ADDSD,
      Operands{Operand::makeReg(Reg::XMM0), Operand::makeReg(Reg::XMM1)}, 4);
  fn.instructions.emplace_back(Opcode::RET, Operands{}, 5);
  fn.layout(0);

  objfile::MiraObject obj = objfile::buildObject({fn}, {"mc_print"});
  std::vector<std::uint8_t> bytes = obj.serialize();

  DiagnosticEngine diags;
  auto parsed = objfile::MiraObject::parse(bytes, diags);
  ASSERT_TRUE(parsed.has_value()) << diags.str();
  ASSERT_EQ(parsed->symbols.size(), 1u);
  EXPECT_EQ(parsed->symbols[0].name, "f");
  EXPECT_EQ(parsed->externSymbols.size(), 1u);
  EXPECT_EQ(parsed->text.size(), obj.text.size());
  // Line lookups recover the per-instruction lines.
  EXPECT_EQ(parsed->lineForAddress(fn.instructions[0].address), 3u);
  EXPECT_EQ(parsed->lineForAddress(fn.instructions[1].address), 4u);
  EXPECT_EQ(parsed->lineForAddress(fn.instructions[2].address), 5u);
}

TEST(ObjFile, BadMagicRejected) {
  std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
  DiagnosticEngine diags;
  EXPECT_FALSE(objfile::MiraObject::parse(junk, diags).has_value());
  EXPECT_TRUE(diags.containsMessage("bad magic"));
}

TEST(ObjFile, TruncatedTextRejected) {
  MachineFunction fn;
  fn.name = "f";
  fn.instructions.emplace_back(Opcode::RET, Operands{}, 1);
  fn.layout(0);
  objfile::MiraObject obj = objfile::buildObject({fn}, {});
  std::vector<std::uint8_t> bytes = obj.serialize();
  bytes.resize(bytes.size() / 2);
  DiagnosticEngine diags;
  EXPECT_FALSE(objfile::MiraObject::parse(bytes, diags).has_value());
  EXPECT_TRUE(diags.hasErrors());
}

TEST(ObjFile, SymbolRangeValidated) {
  MachineFunction fn;
  fn.name = "f";
  fn.instructions.emplace_back(Opcode::RET, Operands{}, 1);
  fn.layout(0);
  objfile::MiraObject obj = objfile::buildObject({fn}, {});
  obj.symbols[0].size += 1000; // corrupt
  std::vector<std::uint8_t> bytes = obj.serialize();
  DiagnosticEngine diags;
  EXPECT_FALSE(objfile::MiraObject::parse(bytes, diags).has_value());
  EXPECT_TRUE(diags.containsMessage("extends past"));

  // An offset whose sum with the size wraps past 2^64 is past .text too
  // (binast decodes the symbol's bytes where they lie).
  obj.symbols[0].offset = ~std::uint64_t{0};
  obj.symbols[0].size = 2;
  bytes = obj.serialize();
  DiagnosticEngine wrapDiags;
  EXPECT_FALSE(objfile::MiraObject::parse(bytes, wrapDiags).has_value());
  EXPECT_TRUE(wrapDiags.containsMessage("extends past"));
}

} // namespace
} // namespace mira::isa
