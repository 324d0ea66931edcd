#include "codegen/regalloc.h"

#include <algorithm>

namespace mira::codegen {

using mir::kNoVReg;
using mir::MirBlock;
using mir::MirFunction;
using mir::MirInst;
using mir::MirOp;
using mir::MirType;
using mir::VReg;

namespace {

bool isFPType(MirType t) { return t == MirType::F64 || t == MirType::F32; }

const isa::Reg kGPRPool[] = {
    isa::Reg::RAX, isa::Reg::RBX, isa::Reg::RCX, isa::Reg::RDX,
    isa::Reg::RSI, isa::Reg::RDI, isa::Reg::R8,  isa::Reg::R9,
    isa::Reg::R12, isa::Reg::R13,
};
const isa::Reg kXMMPool[] = {
    isa::Reg::XMM0, isa::Reg::XMM1,  isa::Reg::XMM2,  isa::Reg::XMM3,
    isa::Reg::XMM4, isa::Reg::XMM5,  isa::Reg::XMM6,  isa::Reg::XMM7,
    isa::Reg::XMM8, isa::Reg::XMM9,  isa::Reg::XMM10, isa::Reg::XMM11,
    isa::Reg::XMM12, isa::Reg::XMM13,
};

/// A free pool is a mask with bit r set when isa::Reg r is free; taking
/// the lowest set bit hands out the lowest-numbered free register.
using RegMask = std::uint32_t;
static_assert(static_cast<int>(isa::Reg::NONE) <= 32,
              "every isa::Reg must fit a RegMask bit");

RegMask bit(isa::Reg r) { return RegMask{1} << static_cast<int>(r); }

template <std::size_t N> RegMask maskOf(const isa::Reg (&pool)[N]) {
  RegMask mask = 0;
  for (isa::Reg r : pool)
    mask |= bit(r);
  return mask;
}

struct Interval {
  VReg vreg = kNoVReg; // kNoVReg until the register is first touched
  std::size_t start = 0;
  std::size_t end = 0;
  bool fp = false;
  bool crossesCall = false;
};

} // namespace

AllocationResult allocateRegisters(const MirFunction &fn) {
  // Linear positions.
  std::vector<std::pair<std::size_t, std::size_t>> blockSpan(
      fn.blocks.size()); // [startPos, endPos)
  std::size_t pos = 0;
  std::vector<std::size_t> callPositions;
  std::vector<Interval> intervals(fn.vregTypes.size()); // by vreg
  std::size_t touched = 0;

  auto touch = [&](VReg r, std::size_t p) {
    if (r == kNoVReg)
      return;
    Interval &iv = intervals[r];
    if (iv.vreg == kNoVReg) {
      iv.vreg = r;
      iv.start = p;
      iv.end = p;
      iv.fp = isFPType(fn.typeOf(r));
      ++touched;
    } else {
      iv.start = std::min(iv.start, p);
      iv.end = std::max(iv.end, p);
    }
  };

  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    blockSpan[b].first = pos;
    for (const MirInst &inst : fn.blocks[b].insts) {
      for (VReg u : inst.uses())
        touch(u, pos);
      touch(inst.def(), pos);
      if (inst.op == MirOp::Call)
        callPositions.push_back(pos);
      ++pos;
    }
    blockSpan[b].second = pos;
  }
  // Parameters are live from position 0.
  for (VReg p : fn.paramRegs)
    touch(p, 0);

  // Back edges: a branch from block b to block t with t <= b forms a loop
  // region [start(t), end(b)). Extend every interval touching the region
  // to span it (conservative; see header). Repeat until stable to handle
  // nested/overlapping regions; intervals never affect each other, so
  // each one is settled on its own.
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b)
    for (std::uint32_t succ : fn.blocks[b].successors())
      if (succ <= b)
        regions.push_back({blockSpan[succ].first, blockSpan[b].second});

  std::vector<Interval> order;
  order.reserve(touched);
  for (const Interval &touchedIv : intervals) {
    if (touchedIv.vreg == kNoVReg)
      continue;
    Interval iv = touchedIv;
    for (bool changed = true; changed;) {
      changed = false;
      for (const auto &[lo, hi] : regions) {
        bool intersects = iv.start < hi && iv.end >= lo;
        if (intersects && (iv.start > lo || iv.end < hi - 1)) {
          iv.start = std::min(iv.start, lo);
          iv.end = std::max(iv.end, hi - 1);
          changed = true;
        }
      }
    }
    for (std::size_t cp : callPositions)
      if (iv.start < cp && cp < iv.end)
        iv.crossesCall = true;
    order.push_back(iv);
  }

  // Linear scan.
  std::sort(order.begin(), order.end(), [](const Interval &a,
                                           const Interval &b) {
    return a.start != b.start ? a.start < b.start : a.vreg < b.vreg;
  });

  AllocationResult result;
  result.assignments.resize(fn.vregTypes.size());
  struct Active {
    std::size_t end;
    isa::Reg reg;
    bool fp;
  };
  std::vector<Active> active;
  RegMask freeGPR = maskOf(kGPRPool);
  RegMask freeXMM = maskOf(kXMMPool);

  for (const Interval &iv : order) {
    // Expire finished intervals.
    for (auto it = active.begin(); it != active.end();) {
      if (it->end < iv.start) {
        (it->fp ? freeXMM : freeGPR) |= bit(it->reg);
        it = active.erase(it);
      } else {
        ++it;
      }
    }
    Assignment &asg = result.assignments[iv.vreg];
    RegMask &pool = iv.fp ? freeXMM : freeGPR;
    if (!iv.crossesCall && pool != 0) {
      asg.inRegister = true;
      asg.reg = static_cast<isa::Reg>(__builtin_ctz(pool));
      pool &= pool - 1;
      active.push_back({iv.end, asg.reg, iv.fp});
    } else {
      asg.inRegister = false;
      asg.stackSlot = result.numStackSlots++;
    }
  }
  return result;
}

} // namespace mira::codegen
