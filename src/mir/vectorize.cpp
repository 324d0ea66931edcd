#include "mir/vectorize.h"

#include <algorithm>
#include <optional>

namespace mira::mir {

namespace {

/// Register flags of one loop under planning, indexed by VReg: defined
/// anywhere in the loop (header, body or latch), and defined in its body
/// block so far. One allocation per function, reused for every loop.
struct RegionDefs {
  static constexpr std::uint8_t kInLoop = 1, kInBody = 2;
  std::vector<std::uint8_t> flags;

  void build(const MirFunction &fn, const LoopDescriptor &loop) {
    flags.assign(fn.vregTypes.size(), 0);
    auto mark = [&](std::uint32_t b) {
      for (const MirInst &inst : fn.blocks[b].insts)
        if (inst.def() != kNoVReg)
          flags[inst.def()] |= kInLoop;
    };
    mark(loop.header);
    mark(loop.latch);
    for (std::uint32_t b : loop.bodyBlocks)
      mark(b);
  }
  bool inLoop(VReg r) const { return flags[r] & kInLoop; }
  bool inBody(VReg r) const { return flags[r] & kInBody; }
};

bool isInnermost(const MirFunction &fn, const LoopDescriptor &loop) {
  for (const LoopDescriptor &other : fn.loops) {
    if (&other == &loop)
      continue;
    if (std::binary_search(loop.bodyBlocks.begin(), loop.bodyBlocks.end(),
                           other.header))
      return false;
  }
  return true;
}

struct Plan {
  std::vector<std::size_t> packedInsts; // indices into body insts
  VReg reductionAcc = kNoVReg;          // scalar accumulator (if any)
  std::size_t reductionAddIdx = 0;      // FAdd index in body
  std::size_t reductionCopyIdx = 0;     // Copy acc = t index in body
  /// f64 invariants needing a splat, ascending and distinct.
  std::vector<VReg> invariantScalars;
};

/// Check eligibility of the single body block and build the rewrite plan.
bool planLoop(const MirFunction &fn, const LoopDescriptor &loop,
              RegionDefs &region, Plan &plan) {
  if (loop.step != 1 || loop.rel != MirCmp::Lt || loop.vectorized)
    return false;
  if (loop.bodyBlocks.size() != 1)
    return false;
  std::uint32_t bodyId = loop.bodyBlocks.front();
  const MirBlock &body = fn.blocks[bodyId];
  if (body.insts.empty())
    return false;

  auto isInvariant = [&](VReg r) { return !region.inLoop(r); };
  plan.packedInsts.reserve(body.insts.size());

  for (std::size_t i = 0; i < body.insts.size(); ++i) {
    const MirInst &inst = body.insts[i];
    if (inst.op == MirOp::Jump) {
      if (i + 1 != body.insts.size() || inst.target != loop.latch)
        return false;
      continue;
    }
    switch (inst.op) {
    case MirOp::Load:
      if (inst.type != MirType::F64 || inst.index != loop.induction ||
          inst.scale != 8 || !isInvariant(inst.base))
        return false;
      plan.packedInsts.push_back(i);
      break;
    case MirOp::Store:
      if (inst.type != MirType::F64 || inst.index != loop.induction ||
          inst.scale != 8 || !isInvariant(inst.base))
        return false;
      if (!region.inBody(inst.a)) {
        if (!(isInvariant(inst.a) && fn.typeOf(inst.a) == MirType::F64))
          return false;
        plan.invariantScalars.push_back(inst.a);
      }
      plan.packedInsts.push_back(i);
      break;
    case MirOp::FAdd:
    case MirOp::FSub:
    case MirOp::FMul:
    case MirOp::FDiv:
    case MirOp::FMin:
    case MirOp::FMax:
    case MirOp::FNeg:
    case MirOp::Copy:
    case MirOp::ConstF: {
      if (inst.type != MirType::F64 || inst.packed)
        return false;
      for (VReg use : inst.uses()) {
        if (use == loop.induction)
          return false; // induction may appear only as an index
        if (!region.inBody(use)) {
          if (region.inLoop(use)) {
            // Loop-carried value: only allowed as the reduction, matched
            // below.
            continue;
          }
          if (fn.typeOf(use) != MirType::F64)
            return false;
          plan.invariantScalars.push_back(use);
        }
      }
      plan.packedInsts.push_back(i);
      break;
    }
    default:
      return false; // integer ops, calls, branches: not vectorizable
    }
    if (inst.def() != kNoVReg)
      region.flags[inst.def()] |= RegionDefs::kInBody;
  }
  std::sort(plan.invariantScalars.begin(), plan.invariantScalars.end());
  plan.invariantScalars.erase(std::unique(plan.invariantScalars.begin(),
                                          plan.invariantScalars.end()),
                              plan.invariantScalars.end());

  // Loop-carried scalars: find registers defined both inside the body and
  // used before their in-body definition (classic reduction shape:
  //   t = fadd acc, x; ...; copy acc = t). kInBody now marks every body
  // definition; a second pass clears each as it is reached, so a use of a
  // still-marked register reads the previous iteration's value.
  VReg carried = kNoVReg;
  for (const MirInst &inst : body.insts) {
    for (VReg use : inst.uses()) {
      if (!region.inBody(use) || use == carried)
        continue;
      if (carried != kNoVReg)
        return false; // more than one carried register
      carried = use;
    }
    if (inst.def() != kNoVReg)
      region.flags[inst.def()] &= ~RegionDefs::kInBody;
  }
  if (carried != kNoVReg) {
    VReg acc = carried;
    if (acc == loop.induction || fn.typeOf(acc) != MirType::F64)
      return false;
    // Match: exactly one FAdd using acc, and exactly one Copy acc = tmp
    // where tmp is that FAdd's result; acc has no other body uses/defs.
    int addIdx = -1, copyIdx = -1;
    for (std::size_t i = 0; i < body.insts.size(); ++i) {
      const MirInst &inst = body.insts[i];
      for (VReg use : inst.uses()) {
        if (use != acc)
          continue;
        if (inst.op == MirOp::FAdd && addIdx < 0 &&
            (inst.a == acc) != (inst.b == acc)) {
          addIdx = static_cast<int>(i);
        } else if (inst.op == MirOp::Copy) {
          return false; // acc copied elsewhere
        } else if (addIdx >= 0 && static_cast<int>(i) != addIdx) {
          return false; // second use
        } else if (addIdx < 0) {
          return false;
        }
      }
      if (inst.def() == acc) {
        if (inst.op != MirOp::Copy || copyIdx >= 0 || addIdx < 0 ||
            inst.a != body.insts[static_cast<std::size_t>(addIdx)].dst)
          return false;
        copyIdx = static_cast<int>(i);
      }
    }
    if (addIdx < 0 || copyIdx < 0)
      return false;
    plan.reductionAcc = acc;
    plan.reductionAddIdx = static_cast<std::size_t>(addIdx);
    plan.reductionCopyIdx = static_cast<std::size_t>(copyIdx);
  }
  return true;
}

} // namespace

std::size_t vectorizeLoops(MirFunction &fn) {
  std::size_t vectorizedCount = 0;
  std::size_t numLoops = fn.loops.size();
  RegionDefs region;
  for (std::size_t li = 0; li < numLoops; ++li) {
    if (!isInnermost(fn, fn.loops[li]))
      continue;
    region.build(fn, fn.loops[li]);
    Plan plan;
    if (!planLoop(fn, fn.loops[li], region, plan))
      continue;
    // Take the descriptor out: we will append to fn.loops (invalidates
    // refs), and put it back updated in step 5.
    LoopDescriptor loop = std::move(fn.loops[li]);

    std::uint32_t bodyId = loop.bodyBlocks.front();
    std::uint32_t line = loop.sourceLine;

    // ---- 1. Clone the scalar loop as the remainder. ----
    fn.blocks.reserve(fn.blocks.size() + 4);
    std::uint32_t mainExit = fn.newBlock();
    std::uint32_t rHeader = fn.newBlock();
    std::uint32_t rBody = fn.newBlock();
    std::uint32_t rLatch = fn.newBlock();

    {
      MirBlock &hdr = fn.blocks[rHeader];
      hdr.insts.reserve(2);
      MirInst cmpInst;
      cmpInst.op = MirOp::ICmp;
      cmpInst.type = MirType::I64;
      cmpInst.cmp = MirCmp::Lt;
      cmpInst.a = loop.induction;
      cmpInst.b = loop.limit;
      cmpInst.dst = fn.newVReg(MirType::I64);
      cmpInst.line = line;
      hdr.insts.push_back(cmpInst);
      MirInst br;
      br.op = MirOp::Branch;
      br.a = cmpInst.dst;
      br.target = rBody;
      br.targetFalse = loop.exit;
      br.line = line;
      hdr.insts.push_back(br);
    }
    {
      MirBlock &b = fn.blocks[rBody];
      b.insts = fn.blocks[bodyId].insts; // scalar clone, same registers
      if (!b.insts.empty() && b.insts.back().op == MirOp::Jump)
        b.insts.back().target = rLatch;
    }
    {
      MirBlock &l = fn.blocks[rLatch];
      l.insts.reserve(3);
      MirInst one;
      one.op = MirOp::ConstI;
      one.type = MirType::I64;
      one.dst = fn.newVReg(MirType::I64);
      one.imm = 1;
      one.line = line;
      l.insts.push_back(one);
      MirInst add;
      add.op = MirOp::Add;
      add.type = MirType::I64;
      add.a = loop.induction;
      add.b = one.dst;
      add.dst = loop.induction;
      add.line = line;
      l.insts.push_back(add);
      MirInst back;
      back.op = MirOp::Jump;
      back.target = rHeader;
      back.line = line;
      l.insts.push_back(back);
    }

    // ---- 2. Preheader: vecEnd = limit - ((limit - ind) & 1); splats. ----
    // (invariant, its splat), ascending by invariant.
    std::vector<std::pair<VReg, VReg>> splatOf;
    splatOf.reserve(plan.invariantScalars.size());
    {
      MirBlock &pre = fn.blocks[loop.preheader];
      // Insert before the terminator.
      std::optional<MirInst> tail;
      if (!pre.insts.empty() && pre.insts.back().isTerminator()) {
        tail = std::move(pre.insts.back());
        pre.insts.pop_back();
      }
      pre.insts.reserve(pre.insts.size() + 4 + plan.invariantScalars.size() +
                        (plan.reductionAcc != kNoVReg) + (tail ? 1 : 0));
      MirInst cnt;
      cnt.op = MirOp::Sub;
      cnt.type = MirType::I64;
      cnt.a = loop.limit;
      cnt.b = loop.induction;
      cnt.dst = fn.newVReg(MirType::I64);
      cnt.line = line;
      pre.insts.push_back(cnt);
      MirInst oneC;
      oneC.op = MirOp::ConstI;
      oneC.type = MirType::I64;
      oneC.dst = fn.newVReg(MirType::I64);
      oneC.imm = 1;
      oneC.line = line;
      pre.insts.push_back(oneC);
      MirInst rem;
      rem.op = MirOp::And;
      rem.type = MirType::I64;
      rem.a = cnt.dst;
      rem.b = oneC.dst;
      rem.dst = fn.newVReg(MirType::I64);
      rem.line = line;
      pre.insts.push_back(rem);
      MirInst vecEnd;
      vecEnd.op = MirOp::Sub;
      vecEnd.type = MirType::I64;
      vecEnd.a = loop.limit;
      vecEnd.b = rem.dst;
      vecEnd.dst = fn.newVReg(MirType::I64);
      vecEnd.line = line;
      pre.insts.push_back(vecEnd);

      for (VReg inv : plan.invariantScalars) {
        MirInst splat;
        splat.op = MirOp::FSplat;
        splat.type = MirType::F64;
        splat.packed = true;
        splat.a = inv;
        splat.dst = fn.newVReg(MirType::F64);
        splat.line = line;
        pre.insts.push_back(splat);
        splatOf.emplace_back(inv, splat.dst);
      }

      VReg vacc = kNoVReg;
      if (plan.reductionAcc != kNoVReg) {
        MirInst z;
        z.op = MirOp::ConstF;
        z.type = MirType::F64;
        z.packed = true;
        z.fimm = 0;
        z.dst = fn.newVReg(MirType::F64);
        z.line = line;
        pre.insts.push_back(z);
        vacc = z.dst;
      }
      if (tail)
        pre.insts.push_back(std::move(*tail));

      // ---- 3. Rewrite the main loop. ----
      MirBlock &hdr = fn.blocks[loop.header];
      for (MirInst &inst : hdr.insts)
        if (inst.op == MirOp::ICmp && inst.a == loop.induction &&
            inst.b == loop.limit)
          inst.b = vecEnd.dst;
      // False edge of the main header goes to the epilogue, then the
      // remainder loop.
      for (MirInst &inst : hdr.insts)
        if (inst.op == MirOp::Branch && inst.targetFalse == loop.exit)
          inst.targetFalse = mainExit;

      MirBlock &latch = fn.blocks[loop.latch];
      for (MirInst &inst : latch.insts)
        if (inst.op == MirOp::ConstI && inst.imm == 1)
          inst.imm = 2;

      MirBlock &body = fn.blocks[bodyId];
      for (std::size_t idx : plan.packedInsts) {
        MirInst &inst = body.insts[idx];
        inst.packed = true;
        for (auto &[inv, splat] : splatOf) {
          if (inst.op == MirOp::Store && inst.a == inv)
            inst.a = splat;
          if (inst.op != MirOp::Load && inst.op != MirOp::Store) {
            if (inst.a == inv)
              inst.a = splat;
            if (inst.b == inv)
              inst.b = splat;
          }
        }
      }
      if (plan.reductionAcc != kNoVReg) {
        MirInst &add = body.insts[plan.reductionAddIdx];
        if (add.a == plan.reductionAcc)
          add.a = vacc;
        else
          add.b = vacc;
        MirInst &copy = body.insts[plan.reductionCopyIdx];
        copy.dst = vacc;
      }

      // ---- 4. Epilogue block. ----
      MirBlock &ep = fn.blocks[mainExit];
      ep.insts.reserve(plan.reductionAcc != kNoVReg ? 3 : 1);
      if (plan.reductionAcc != kNoVReg) {
        MirInst h;
        h.op = MirOp::FHAdd;
        h.type = MirType::F64;
        h.a = vacc;
        h.dst = fn.newVReg(MirType::F64);
        h.line = line;
        ep.insts.push_back(h);
        MirInst addBack;
        addBack.op = MirOp::FAdd;
        addBack.type = MirType::F64;
        addBack.a = plan.reductionAcc;
        addBack.b = h.dst;
        addBack.dst = plan.reductionAcc;
        addBack.line = line;
        ep.insts.push_back(addBack);
      }
      MirInst j;
      j.op = MirOp::Jump;
      j.target = rHeader;
      j.line = line;
      ep.insts.push_back(j);

      // ---- 5. Update descriptors. ----
      LoopDescriptor remainder;
      remainder.preheader = mainExit;
      remainder.header = rHeader;
      remainder.latch = rLatch;
      remainder.exit = loop.exit;
      remainder.bodyBlocks = {rBody};
      remainder.induction = loop.induction;
      remainder.limit = loop.limit;
      remainder.rel = MirCmp::Lt;
      remainder.step = 1;
      remainder.sourceLine = loop.sourceLine;
      remainder.ffEligible = loop.ffEligible;

      loop.vectorized = true;
      loop.step = 2;
      loop.limit = vecEnd.dst;
      loop.exit = mainExit;
      loop.remainderLoop = static_cast<int>(fn.loops.size());
      fn.loops[li] = std::move(loop);
      fn.loops.push_back(std::move(remainder));
    }
    ++vectorizedCount;
  }
  return vectorizedCount;
}

} // namespace mira::mir
