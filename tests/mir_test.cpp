// MIR-level tests: lowering structure, optimization passes, the
// vectorizer's transformations, register allocation and code generation
// invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "codegen/codegen.h"
#include "codegen/regalloc.h"
#include "core/artifacts.h"
#include "core/mira.h"
#include "frontend/parser.h"
#include "mir/lowering.h"
#include "mir/passes.h"
#include "sema/sema.h"

namespace mira::mir {
namespace {

struct Lowered {
  std::unique_ptr<frontend::TranslationUnit> unit;
  MirModule module;
  DiagnosticEngine diags;
};

Lowered lower(const std::string &src, bool optimize = true,
              bool vectorize = true) {
  Lowered out;
  out.unit = frontend::Parser::parse(src, "t.mc", out.diags);
  EXPECT_FALSE(out.diags.hasErrors()) << out.diags.str();
  sema::SemanticAnalyzer analyzer(out.diags);
  auto sr = analyzer.analyze(*out.unit);
  EXPECT_TRUE(sr.success) << out.diags.str();
  CompilerOptions options;
  options.optimize = optimize;
  options.vectorize = vectorize;
  out.module = lowerToMir(*out.unit, options, out.diags);
  EXPECT_FALSE(out.diags.hasErrors()) << out.diags.str();
  return out;
}

std::size_t countOps(const MirFunction &fn, MirOp op) {
  std::size_t n = 0;
  for (const MirBlock &b : fn.blocks)
    for (const MirInst &inst : b.insts)
      if (inst.op == op)
        ++n;
  return n;
}

MirInst makeInst(MirOp op, VReg dst = kNoVReg, VReg a = kNoVReg,
                 VReg b = kNoVReg) {
  MirInst inst;
  inst.op = op;
  inst.dst = dst;
  inst.a = a;
  inst.b = b;
  return inst;
}

TEST(Lowering, CountedLoopHasCanonicalShape) {
  auto l = lower("void f(double* v, int n) {\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    v[i] = 1.0;\n"
                 "  }\n"
                 "}",
                 /*optimize=*/false, /*vectorize=*/false);
  const MirFunction *fn = l.module.find("f");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->loops.size(), 1u);
  const LoopDescriptor &loop = fn->loops[0];
  EXPECT_EQ(loop.step, 1);
  EXPECT_EQ(loop.rel, MirCmp::Lt);
  // Header: ICmp + Branch only.
  const MirBlock &header = fn->blocks[loop.header];
  ASSERT_EQ(header.insts.size(), 2u);
  EXPECT_EQ(header.insts[0].op, MirOp::ICmp);
  EXPECT_EQ(header.insts[1].op, MirOp::Branch);
  // Latch increments the induction register and jumps back.
  const MirBlock &latch = fn->blocks[loop.latch];
  EXPECT_EQ(latch.insts.back().op, MirOp::Jump);
  EXPECT_EQ(latch.insts.back().target, loop.header);
}

TEST(Lowering, LeAndReversedConditionsNormalizeToLt) {
  auto l = lower("void f(int n) { for (int i = 1; i <= n; i++) { } }",
                 false, false);
  const MirFunction *fn = l.module.find("f");
  ASSERT_EQ(fn->loops.size(), 1u);
  EXPECT_EQ(fn->loops[0].rel, MirCmp::Lt); // limit was bumped by one
}

TEST(Lowering, MethodGetsImplicitThis) {
  auto l = lower("class A { public: int n;\n"
                 "  int get() { return n; } };");
  const MirFunction *fn = l.module.find("A::get");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->paramRegs.size(), 1u); // this
  EXPECT_EQ(fn->paramTypes[0], MirType::Ptr);
  // Field access is a load through 'this'.
  EXPECT_GE(countOps(*fn, MirOp::Load), 1u);
}

TEST(Lowering, MultiDimArrayLinearizes) {
  auto l = lower("double f(int n, int m) {\n"
                 "  double a[n][m];\n"
                 "  a[1][2] = 5.0;\n"
                 "  return a[1][2];\n"
                 "}",
                 false, false);
  const MirFunction *fn = l.module.find("f");
  // linearization multiplies by the row size: at least one Mul.
  EXPECT_GE(countOps(*fn, MirOp::Mul), 2u);
  EXPECT_EQ(countOps(*fn, MirOp::Alloca), 1u);
}

TEST(Lowering, ForInitDeclarationEndsWithItsLoop) {
  // The loop's `i` shadows the outer one only inside the loop.
  const char *const body =
      "double f(int n) {\n"
      "  int i = 3;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "  }\n";
  const std::pair<std::string, double> cases[] = {
      {std::string(body) + "  double s = 0;\n"
                           "  for (int j = 0; j < i; j++) {\n"
                           "    s = s + 1.5;\n"
                           "  }\n"
                           "  return s;\n"
                           "}",
       4.5},
      {std::string(body) + "  return i;\n"
                           "}",
       3.0},
  };
  for (const auto &[src, expected] : cases) {
    DiagnosticEngine diags;
    auto program = core::compileProgram(src, "t.mc", {}, diags);
    ASSERT_NE(program, nullptr) << diags.str();
    auto r = core::simulate(*program, "f", {sim::Value::ofInt(10)});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_DOUBLE_EQ(r.returnValue.f, expected) << src;
  }
}

TEST(Passes, ConstantFoldingFoldsLiteralArithmetic) {
  auto l = lower("int f() { return 2 * 3 + 4; }", false, false);
  MirFunction *fn = l.module.find("f");
  std::size_t rewritten = foldConstants(*fn);
  EXPECT_GE(rewritten, 1u);
  eliminateDeadCode(*fn);
  // After folding+DCE there is no Mul left.
  EXPECT_EQ(countOps(*fn, MirOp::Mul), 0u);
}

TEST(Passes, DeadCodeEliminationRemovesUnusedValues) {
  auto l = lower("int f(int a) {\n"
                 "  int unused = a * 17;\n"
                 "  return a;\n"
                 "}",
                 false, false);
  MirFunction *fn = l.module.find("f");
  std::size_t before = countOps(*fn, MirOp::Mul);
  EXPECT_EQ(before, 1u);
  propagateCopies(*fn);
  std::size_t removed = eliminateDeadCode(*fn);
  EXPECT_GE(removed, 1u);
  EXPECT_EQ(countOps(*fn, MirOp::Mul), 0u);
}

TEST(Passes, DceKeepsSideEffects) {
  auto l = lower("void f(double* p) { p[0] = 1.0; mc_print(p[0]); }",
                 false, false);
  MirFunction *fn = l.module.find("f");
  eliminateDeadCode(*fn);
  EXPECT_EQ(countOps(*fn, MirOp::Store), 1u);
  EXPECT_EQ(countOps(*fn, MirOp::Call), 1u);
}

TEST(Passes, UnreachableBlocksCleared) {
  auto l = lower("int f() { return 1; }", false, false);
  MirFunction *fn = l.module.find("f");
  // Lowering creates an unreachable continuation after 'return'.
  std::size_t removed = removeUnreachableBlocks(*fn);
  (void)removed;
  for (const MirBlock &b : fn->blocks) {
    bool reachableFromEntry = b.id == 0;
    for (const MirBlock &p : fn->blocks)
      for (std::uint32_t s : p.successors())
        if (s == b.id)
          reachableFromEntry = true;
    if (!reachableFromEntry && b.id != 0)
      EXPECT_TRUE(b.insts.empty()) << "block " << b.id;
  }
}

TEST(Passes, DceRemovesDeadChainAcrossBlocksExactly) {
  // z is dead, which leaves y dead, which leaves x dead: the chain starts
  // in the if-block and ends in the entry block.
  auto l = lower("int f(int a, int n) {\n"
                 "  int x = a * 3;\n"
                 "  int y = x + 1;\n"
                 "  if (n > 0) {\n"
                 "    int z = y * 2;\n"
                 "  }\n"
                 "  return a;\n"
                 "}",
                 false, false);
  MirFunction *fn = l.module.find("f");
  ASSERT_EQ(countOps(*fn, MirOp::Mul), 2u);
  // Each of x, y and z is a constant, an operation and a copy.
  EXPECT_EQ(eliminateDeadCode(*fn), 9u);
  EXPECT_EQ(countOps(*fn, MirOp::Mul), 0u);
  EXPECT_EQ(countOps(*fn, MirOp::Add), 0u);
  EXPECT_EQ(countOps(*fn, MirOp::Copy), 0u);
  // Only the jump is left in the if-block.
  ASSERT_EQ(fn->blocks[1].insts.size(), 1u);
  EXPECT_EQ(fn->blocks[1].insts[0].op, MirOp::Jump);
  EXPECT_EQ(eliminateDeadCode(*fn), 0u);
}

TEST(Passes, DceKeepsUnusedAccumulatorThatReadsItself) {
  // s is never returned, but `s = s + a[i]` reads s: DCE counts
  // references rather than computing liveness, so the loop body stays.
  auto l = lower("void f(int* a, int n) {\n"
                 "  int s = 0;\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    s = s + a[i];\n"
                 "  }\n"
                 "}",
                 false, false);
  MirFunction *fn = l.module.find("f");
  const std::size_t before = countOps(*fn, MirOp::Add);
  EXPECT_EQ(eliminateDeadCode(*fn), 0u);
  EXPECT_EQ(countOps(*fn, MirOp::Add), before);
  EXPECT_EQ(countOps(*fn, MirOp::Load), 1u);

  // The same holds through the optimizing pipeline.
  auto optimized = lower("void f(int* a, int n) {\n"
                         "  int s = 0;\n"
                         "  for (int i = 0; i < n; i++) {\n"
                         "    s = s + a[i];\n"
                         "  }\n"
                         "}");
  EXPECT_EQ(countOps(*optimized.module.find("f"), MirOp::Load), 1u);
}

TEST(Passes, DceNeverRemovesLoopAnchorsOrParameters) {
  // Built by hand so that the pinned registers have no readers at all.
  MirFunction fn;
  fn.name = "f";
  const VReg param = fn.newVReg(MirType::I64);
  fn.paramRegs = {param};
  fn.paramTypes = {MirType::I64};
  const VReg induction = fn.newVReg(MirType::I64);
  const VReg limit = fn.newVReg(MirType::I64);
  const VReg unpinned = fn.newVReg(MirType::I64);
  LoopDescriptor loop;
  loop.induction = induction;
  loop.limit = limit;
  fn.loops.push_back(loop);
  const std::uint32_t entry = fn.newBlock();
  for (VReg r : {param, induction, limit, unpinned})
    fn.blocks[entry].insts.push_back(makeInst(MirOp::ConstI, r));
  fn.blocks[entry].insts.push_back(makeInst(MirOp::Ret));

  EXPECT_EQ(eliminateDeadCode(fn), 1u);
  std::vector<VReg> defs;
  for (const MirInst &inst : fn.blocks[entry].insts)
    defs.push_back(inst.def());
  EXPECT_EQ(defs, (std::vector<VReg>{param, induction, limit, kNoVReg}));
}

TEST(Passes, TrappingDivisionIsNotFoldedAndOverflowWraps) {
  // INT64_MIN / -1 and INT64_MIN % -1 trap like a zero divisor, so the
  // fold leaves them for the program to execute.
  for (const auto &[op, mirOp] : {std::pair{"/", MirOp::Div},
                                  std::pair{"%", MirOp::Rem}}) {
    const std::string src =
        std::string("int f() { int a = 0 - 9223372036854775807 - 1; "
                    "int b = a ") +
        op + " (0 - 1); return b; }";
    core::AnalysisSpec spec;
    spec.source = src;
    EXPECT_TRUE(core::analyze(spec).ok) << src;
    auto l = lower(src);
    EXPECT_EQ(countOps(*l.module.find("f"), mirOp), 1u) << src;
  }

  // Add/Sub/Mul/Neg fold to their two's-complement results.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<const char *, std::int64_t> folds[] = {
      {"int f() { return 9223372036854775807 + 1; }", kMin},
      {"int f() { return 0 - 9223372036854775807 - 1 - 1; }", kMax},
      {"int f() { return 9223372036854775807 * 2; }", -2},
      {"int f() { int a = 0 - 9223372036854775807 - 1; return -a; }", kMin},
  };
  for (const auto &[src, expected] : folds) {
    auto l = lower(src);
    const MirFunction *fn = l.module.find("f");
    const MirInst *ret = fn->blocks[0].terminator();
    ASSERT_NE(ret, nullptr) << src;
    ASSERT_EQ(ret->op, MirOp::Ret) << src;
    const MirInst *def = nullptr;
    for (const MirInst &inst : fn->blocks[0].insts)
      if (inst.def() == ret->a)
        def = &inst;
    ASSERT_NE(def, nullptr) << src;
    EXPECT_EQ(def->op, MirOp::ConstI) << src;
    EXPECT_EQ(def->imm, expected) << src;
  }
}

TEST(Vectorizer, EligibleLoopBecomesPackedPlusRemainder) {
  auto l = lower("void f(double* a, double* b, int n) {\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    a[i] = a[i] + b[i];\n"
                 "  }\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  ASSERT_EQ(fn->loops.size(), 2u);
  const LoopDescriptor &main = fn->loops[0];
  const LoopDescriptor &rem = fn->loops[1];
  EXPECT_TRUE(main.vectorized);
  EXPECT_EQ(main.step, 2);
  EXPECT_EQ(main.remainderLoop, 1);
  EXPECT_FALSE(rem.vectorized);
  EXPECT_EQ(rem.step, 1);
  // Packed instructions exist in the main body only.
  bool sawPacked = false;
  for (std::uint32_t b : main.bodyBlocks)
    for (const MirInst &inst : fn->blocks[b].insts)
      if (inst.packed)
        sawPacked = true;
  EXPECT_TRUE(sawPacked);
  for (std::uint32_t b : rem.bodyBlocks)
    for (const MirInst &inst : fn->blocks[b].insts)
      EXPECT_FALSE(inst.packed);
}

TEST(Vectorizer, ReductionGetsHorizontalAddEpilogue) {
  auto l = lower("double f(double* a, int n) {\n"
                 "  double s = 0.0;\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    s = s + a[i];\n"
                 "  }\n"
                 "  return s;\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  EXPECT_EQ(countOps(*fn, MirOp::FHAdd), 1u);
}

TEST(Vectorizer, GatherAccessRejected) {
  auto l = lower("double f(double* a, int* idx, int n) {\n"
                 "  double s = 0.0;\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    s = s + a[idx[i]];\n"
                 "  }\n"
                 "  return s;\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  for (const LoopDescriptor &loop : fn->loops)
    EXPECT_FALSE(loop.vectorized);
}

TEST(Vectorizer, CallInBodyRejected) {
  auto l = lower("double g(double x) { return x; }\n"
                 "void f(double* a, int n) {\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    a[i] = g(a[i]);\n"
                 "  }\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  for (const LoopDescriptor &loop : fn->loops)
    EXPECT_FALSE(loop.vectorized);
}

TEST(Vectorizer, BranchInBodyRejected) {
  auto l = lower("void f(double* a, int n) {\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    if (i % 2 == 0) { a[i] = 0.0; }\n"
                 "  }\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  for (const LoopDescriptor &loop : fn->loops)
    EXPECT_FALSE(loop.vectorized);
}

// ----------------------------------------------------------------- codegen

TEST(RegAlloc, AssignsDistinctRegistersToOverlappingIntervals) {
  auto l = lower("int f(int a, int b, int c) { return a + b * c; }", false,
                 false);
  const MirFunction *fn = l.module.find("f");
  auto alloc = codegen::allocateRegisters(*fn);
  // Parameters are live simultaneously: if all in registers, they must
  // be distinct.
  std::set<isa::Reg> used;
  for (VReg p : fn->paramRegs) {
    const auto &a = alloc.of(p);
    if (a.inRegister)
      EXPECT_TRUE(used.insert(a.reg).second) << "register reused";
  }
}

TEST(RegAlloc, ValuesLiveAcrossCallsAreStackHomed) {
  auto l = lower("double g(double x) { return x; }\n"
                 "double f(double a) {\n"
                 "  double keep = a * 2.0;\n"
                 "  double r = g(a);\n"
                 "  return keep + r;\n"
                 "}",
                 false, false);
  const MirFunction *fn = l.module.find("f");
  auto alloc = codegen::allocateRegisters(*fn);
  // Find the vreg of 'keep': the Copy receiving the FMul's result.
  VReg keep = kNoVReg;
  VReg mulTemp = kNoVReg;
  for (const MirBlock &b : fn->blocks)
    for (const MirInst &inst : b.insts) {
      if (inst.op == MirOp::FMul)
        mulTemp = inst.dst;
      if (inst.op == MirOp::Copy && inst.a == mulTemp &&
          mulTemp != kNoVReg)
        keep = inst.dst;
    }
  ASSERT_NE(keep, kNoVReg);
  // 'keep' lives across the call: must be spilled (caller-clobbers-all).
  EXPECT_FALSE(alloc.of(keep).inRegister);
}

TEST(RegAlloc, FirstIntervalsGetLowestRegisters) {
  auto l = lower("double f(int n, double x) { return x * n; }");
  const MirFunction *fn = l.module.find("f");
  auto alloc = codegen::allocateRegisters(*fn);
  const auto &n = alloc.of(fn->paramRegs[0]);
  const auto &x = alloc.of(fn->paramRegs[1]);
  ASSERT_TRUE(n.inRegister);
  ASSERT_TRUE(x.inRegister);
  EXPECT_EQ(n.reg, isa::Reg::RAX);
  EXPECT_EQ(x.reg, isa::Reg::XMM0);
}

TEST(RegAlloc, ValueUsedInInnerLoopKeepsItsRegisterAcrossOuterLoop) {
  // k takes the first register, so a live interval that ended at its
  // last read would hand that register to the inner latch.
  auto l = lower("int f() {\n"
                 "  int k = 7;\n"
                 "  int s = 0;\n"
                 "  for (int i = 0; i < 10; i++) {\n"
                 "    for (int j = 0; j < 10; j++) {\n"
                 "      s = s + k;\n"
                 "    }\n"
                 "  }\n"
                 "  return s;\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  ASSERT_EQ(fn->loops.size(), 2u);
  const LoopDescriptor &inner = fn->loops[0];
  const LoopDescriptor &outer = fn->loops[1];
  ASSERT_TRUE(std::is_sorted(outer.bodyBlocks.begin(), outer.bodyBlocks.end()));
  ASSERT_TRUE(std::binary_search(outer.bodyBlocks.begin(),
                                 outer.bodyBlocks.end(), inner.header));

  VReg k = kNoVReg;
  for (const MirInst &inst : fn->blocks[outer.preheader].insts)
    if (inst.op == MirOp::ConstI && inst.imm == 7)
      k = inst.dst;
  ASSERT_NE(k, kNoVReg);
  bool readInInnerBody = false;
  for (std::uint32_t b : inner.bodyBlocks)
    for (const MirInst &inst : fn->blocks[b].insts)
      for (VReg r : inst.uses())
        readInInnerBody |= r == k;
  ASSERT_TRUE(readInInnerBody);

  auto alloc = codegen::allocateRegisters(*fn);
  ASSERT_TRUE(alloc.of(k).inRegister);
  const isa::Reg reg = alloc.of(k).reg;
  std::set<std::uint32_t> region(outer.bodyBlocks.begin(),
                                 outer.bodyBlocks.end());
  region.insert(outer.header);
  region.insert(outer.latch);
  for (std::uint32_t b : region)
    for (const MirInst &inst : fn->blocks[b].insts) {
      const auto uses = inst.uses();
      std::vector<VReg> touched(uses.begin(), uses.end());
      touched.push_back(inst.def());
      for (VReg r : touched)
        if (r != kNoVReg && r != k && alloc.of(r).inRegister)
          EXPECT_NE(alloc.of(r).reg, reg)
              << "%" << r << " shares k's register in bb" << b;
    }
}

/// f(a, b): the entry block computes c = a < b and branches on it; the
/// taken block returns c itself or b.
MirFunction compareThenBranch(bool returnCompare) {
  MirFunction fn;
  fn.name = "f";
  fn.retType = MirType::I64;
  const VReg a = fn.newVReg(MirType::I64);
  const VReg b = fn.newVReg(MirType::I64);
  fn.paramRegs = {a, b};
  fn.paramTypes = {MirType::I64, MirType::I64};
  const VReg c = fn.newVReg(MirType::I64);
  const std::uint32_t entry = fn.newBlock();
  const std::uint32_t taken = fn.newBlock();
  const std::uint32_t other = fn.newBlock();
  MirInst cmp = makeInst(MirOp::ICmp, c, a, b);
  cmp.cmp = MirCmp::Lt;
  MirInst branch = makeInst(MirOp::Branch, kNoVReg, c);
  branch.target = taken;
  branch.targetFalse = other;
  fn.blocks[entry].insts = {cmp, branch};
  fn.blocks[taken].insts = {
      makeInst(MirOp::Ret, kNoVReg, returnCompare ? c : b)};
  fn.blocks[other].insts = {makeInst(MirOp::Ret, kNoVReg, a)};
  return fn;
}

std::size_t countOpcodes(const codegen::CodegenResult &result,
                         isa::Opcode op) {
  std::size_t n = 0;
  for (const auto &inst : result.machine.instructions)
    n += inst.opcode == op;
  return n;
}

TEST(Codegen, CompareReadOnlyByNextBranchFuses) {
  auto result = codegen::generateCode(compareThenBranch(false), {{"f", 0}});
  EXPECT_EQ(countOpcodes(result, isa::Opcode::CMP), 1u);
  EXPECT_EQ(countOpcodes(result, isa::Opcode::JL), 1u);
  EXPECT_EQ(countOpcodes(result, isa::Opcode::SETcc), 0u);
  EXPECT_EQ(countOpcodes(result, isa::Opcode::TEST), 0u);
}

TEST(Codegen, CompareWithAnotherReaderMaterializes) {
  auto result = codegen::generateCode(compareThenBranch(true), {{"f", 0}});
  EXPECT_EQ(countOpcodes(result, isa::Opcode::CMP), 1u);
  EXPECT_EQ(countOpcodes(result, isa::Opcode::SETcc), 1u);
  EXPECT_EQ(countOpcodes(result, isa::Opcode::JL), 0u);
  EXPECT_EQ(countOpcodes(result, isa::Opcode::TEST), 1u);
  EXPECT_EQ(countOpcodes(result, isa::Opcode::JNE), 1u);
}

TEST(Codegen, ExpansionCoversEveryInstruction) {
  auto l = lower("double f(double* v, int n) {\n"
                 "  double s = 0.0;\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    s = s + v[i];\n"
                 "  }\n"
                 "  return s;\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  std::map<std::string, int> ids{{"f", 0}};
  auto result = codegen::generateCode(*fn, ids);
  // Every machine instruction is either prologue or owned by exactly one
  // MIR instruction.
  std::vector<int> owners(result.machine.instructions.size(), 0);
  for (std::uint32_t mi = 0; mi < result.map.prologueEnd; ++mi)
    ++owners[mi];
  for (std::uint32_t b = 0; b < fn->blocks.size(); ++b)
    for (std::uint32_t i = 0; i < fn->blocks[b].insts.size(); ++i) {
      const auto run = result.map.range(b, i);
      for (std::uint32_t mi = run.begin; mi < run.end; ++mi)
        ++owners[mi];
    }
  for (std::size_t i = 0; i < owners.size(); ++i)
    EXPECT_EQ(owners[i], 1) << "machine instr " << i << " "
                            << result.machine.instructions[i].str();

  // The runs tile [prologueEnd, size) in MIR order: each starts where the
  // previous one ended, and the last ends at the last instruction.
  std::uint32_t next = result.map.prologueEnd;
  for (std::uint32_t b = 0; b < fn->blocks.size(); ++b)
    for (std::uint32_t i = 0; i < fn->blocks[b].insts.size(); ++i) {
      const auto run = result.map.range(b, i);
      EXPECT_EQ(run.begin, next) << "block " << b << " inst " << i;
      EXPECT_LE(run.begin, run.end) << "block " << b << " inst " << i;
      next = run.end;
    }
  EXPECT_EQ(next, result.machine.instructions.size());
  EXPECT_GT(result.map.prologueEnd, 0u);
}

TEST(Codegen, BranchesResolveToValidOffsets) {
  auto l = lower("int f(int n) {\n"
                 "  int s = 0;\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    if (i % 2 == 0) { s = s + 1; } else { s = s + 2; }\n"
                 "  }\n"
                 "  return s;\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  std::map<std::string, int> ids{{"f", 0}};
  auto result = codegen::generateCode(*fn, ids);
  std::set<std::uint64_t> starts;
  for (const auto &inst : result.machine.instructions)
    starts.insert(inst.address);
  std::uint64_t end = result.machine.instructions.empty()
                          ? 0
                          : result.machine.instructions.back().address +
                                result.machine.instructions.back()
                                    .encodedSize();
  for (const auto &inst : result.machine.instructions) {
    if (isa::isConditionalJump(inst.opcode) ||
        isa::isUnconditionalJump(inst.opcode)) {
      ASSERT_FALSE(inst.operands.empty());
      ASSERT_EQ(inst.operands[0].kind, isa::OperandKind::Imm);
      std::uint64_t target =
          static_cast<std::uint64_t>(inst.operands[0].imm);
      EXPECT_TRUE(starts.count(target) || target == end)
          << inst.str() << " jumps outside the function";
    }
  }
}

TEST(Codegen, CallsCarryFunctionIds) {
  auto l = lower("int g(int x) { return x; }\n"
                 "int f() { return g(1); }");
  const MirFunction *fn = l.module.find("f");
  std::map<std::string, int> ids{{"g", 0}, {"f", 1}};
  auto result = codegen::generateCode(*fn, ids);
  bool sawCall = false;
  for (const auto &inst : result.machine.instructions) {
    if (isa::isCall(inst.opcode)) {
      sawCall = true;
      ASSERT_EQ(inst.operands[0].kind, isa::OperandKind::Label);
      EXPECT_EQ(inst.operands[0].imm, 0); // id of g
    }
  }
  EXPECT_TRUE(sawCall);
}

TEST(Codegen, ExternCallsGetNegativeIds) {
  EXPECT_LT(codegen::externCallId("mc_print"), 0);
  EXPECT_NE(codegen::externCallId("mc_print"),
            codegen::externCallId("mc_clock"));
}

} // namespace
} // namespace mira::mir
