#include "mir/passes.h"

#include <algorithm>
#include <cmath>

namespace mira::mir {

namespace {

/// A register's known constant. Entries live in a vreg-indexed table and
/// count only while `stamp` names the current block, so moving to the next
/// block forgets them all without clearing anything.
struct ConstValue {
  std::uint32_t stamp = 0;
  bool isFloat = false;
  std::int64_t i = 0;
  double f = 0;
};

bool evalICmp(MirCmp cmp, std::int64_t a, std::int64_t b) {
  switch (cmp) {
  case MirCmp::Lt:
    return a < b;
  case MirCmp::Le:
    return a <= b;
  case MirCmp::Gt:
    return a > b;
  case MirCmp::Ge:
    return a >= b;
  case MirCmp::Eq:
    return a == b;
  case MirCmp::Ne:
    return a != b;
  }
  return false;
}

bool evalFCmp(MirCmp cmp, double a, double b) {
  switch (cmp) {
  case MirCmp::Lt:
    return a < b;
  case MirCmp::Le:
    return a <= b;
  case MirCmp::Gt:
    return a > b;
  case MirCmp::Ge:
    return a >= b;
  case MirCmp::Eq:
    return a == b;
  case MirCmp::Ne:
    return a != b;
  }
  return false;
}

} // namespace

std::size_t foldConstants(MirFunction &fn) {
  std::size_t rewritten = 0;
  std::vector<ConstValue> known(fn.vregTypes.size());
  std::uint32_t stamp = 0;
  for (MirBlock &block : fn.blocks) {
    ++stamp;
    auto lookup = [&](VReg r) -> const ConstValue * {
      return r < known.size() && known[r].stamp == stamp ? &known[r]
                                                         : nullptr;
    };
    for (MirInst &inst : block.insts) {
      auto lookupI = [&](VReg r, std::int64_t &out) {
        const ConstValue *cv = lookup(r);
        if (!cv || cv->isFloat)
          return false;
        out = cv->i;
        return true;
      };
      auto lookupF = [&](VReg r, double &out) {
        const ConstValue *cv = lookup(r);
        if (!cv || !cv->isFloat)
          return false;
        out = cv->f;
        return true;
      };

      std::int64_t ia = 0, ib = 0;
      double fa = 0, fb = 0;

      switch (inst.op) {
      case MirOp::Add:
      case MirOp::Sub:
      case MirOp::Mul:
      case MirOp::Div:
      case MirOp::Rem:
      case MirOp::And:
      case MirOp::Or:
      case MirOp::Xor:
      case MirOp::Shl:
      case MirOp::Shr:
      case MirOp::IMin:
      case MirOp::IMax:
        if (lookupI(inst.a, ia) && lookupI(inst.b, ib)) {
          std::int64_t v = 0;
          bool ok = true;
          switch (inst.op) {
          case MirOp::Add:
            v = wrapAdd(ia, ib);
            break;
          case MirOp::Sub:
            v = wrapSub(ia, ib);
            break;
          case MirOp::Mul:
            v = wrapMul(ia, ib);
            break;
          case MirOp::Div:
            // A trapping division stays for the program to execute.
            ok = !divisionTraps(ia, ib);
            if (ok)
              v = ia / ib;
            break;
          case MirOp::Rem:
            ok = !divisionTraps(ia, ib);
            if (ok)
              v = ia % ib;
            break;
          case MirOp::And:
            v = ia & ib;
            break;
          case MirOp::Or:
            v = ia | ib;
            break;
          case MirOp::Xor:
            v = ia ^ ib;
            break;
          case MirOp::Shl:
            v = ia << ib;
            break;
          case MirOp::Shr:
            v = ia >> ib;
            break;
          case MirOp::IMin:
            v = std::min(ia, ib);
            break;
          case MirOp::IMax:
            v = std::max(ia, ib);
            break;
          default:
            ok = false;
          }
          if (ok) {
            VReg dst = inst.dst;
            std::uint32_t line = inst.line;
            inst = MirInst{};
            inst.op = MirOp::ConstI;
            inst.type = MirType::I64;
            inst.dst = dst;
            inst.imm = v;
            inst.line = line;
            ++rewritten;
          }
        }
        break;
      case MirOp::Neg:
        if (lookupI(inst.a, ia)) {
          VReg dst = inst.dst;
          std::uint32_t line = inst.line;
          inst = MirInst{};
          inst.op = MirOp::ConstI;
          inst.type = MirType::I64;
          inst.dst = dst;
          inst.imm = wrapNeg(ia);
          inst.line = line;
          ++rewritten;
        }
        break;
      case MirOp::FAdd:
      case MirOp::FSub:
      case MirOp::FMul:
      case MirOp::FDiv:
        if (!inst.packed && lookupF(inst.a, fa) && lookupF(inst.b, fb)) {
          double v = 0;
          switch (inst.op) {
          case MirOp::FAdd:
            v = fa + fb;
            break;
          case MirOp::FSub:
            v = fa - fb;
            break;
          case MirOp::FMul:
            v = fa * fb;
            break;
          case MirOp::FDiv:
            v = fa / fb;
            break;
          default:
            break;
          }
          MirType t = inst.type;
          VReg dst = inst.dst;
          std::uint32_t line = inst.line;
          inst = MirInst{};
          inst.op = MirOp::ConstF;
          inst.type = t;
          inst.dst = dst;
          inst.fimm = v;
          inst.line = line;
          ++rewritten;
        }
        break;
      case MirOp::ICmp:
        if (lookupI(inst.a, ia) && lookupI(inst.b, ib)) {
          VReg dst = inst.dst;
          std::uint32_t line = inst.line;
          bool v = evalICmp(inst.cmp, ia, ib);
          inst = MirInst{};
          inst.op = MirOp::ConstI;
          inst.type = MirType::I64;
          inst.dst = dst;
          inst.imm = v ? 1 : 0;
          inst.line = line;
          ++rewritten;
        }
        break;
      case MirOp::FCmp:
        if (lookupF(inst.a, fa) && lookupF(inst.b, fb)) {
          VReg dst = inst.dst;
          std::uint32_t line = inst.line;
          bool v = evalFCmp(inst.cmp, fa, fb);
          inst = MirInst{};
          inst.op = MirOp::ConstI;
          inst.type = MirType::I64;
          inst.dst = dst;
          inst.imm = v ? 1 : 0;
          inst.line = line;
          ++rewritten;
        }
        break;
      case MirOp::Copy: {
        if (const ConstValue *source = lookup(inst.a)) {
          ConstValue cv = *source;
          VReg dst = inst.dst;
          MirType t = inst.type;
          std::uint32_t line = inst.line;
          inst = MirInst{};
          inst.op = cv.isFloat ? MirOp::ConstF : MirOp::ConstI;
          inst.type = t;
          inst.dst = dst;
          inst.imm = cv.i;
          inst.fimm = cv.f;
          inst.line = line;
          ++rewritten;
        }
        break;
      }
      default:
        break;
      }

      // Update the known constants.
      VReg def = inst.def();
      if (def != kNoVReg) {
        if (inst.op == MirOp::ConstI && !inst.packed) {
          known[def] = ConstValue{stamp, false, inst.imm, 0};
        } else if (inst.op == MirOp::ConstF && !inst.packed) {
          known[def] = ConstValue{stamp, true, 0, inst.fimm};
        } else {
          known[def].stamp = 0;
        }
      }
    }
  }
  return rewritten;
}

std::size_t propagateCopies(MirFunction &fn) {
  std::size_t rewritten = 0;
  // alias[dst] holds the source of `dst = copy src` while that copy still
  // holds in the current block; like the fold's table, an entry counts
  // only while its stamp names the current block. `live` lists the dsts
  // with an entry, so a redefinition can drop the aliases pointing at it.
  struct Alias {
    std::uint32_t stamp = 0;
    VReg src = kNoVReg;
  };
  std::vector<Alias> alias(fn.vregTypes.size());
  std::vector<VReg> live;
  std::uint32_t stamp = 0;
  for (MirBlock &block : fn.blocks) {
    ++stamp;
    live.clear();
    for (MirInst &inst : block.insts) {
      // Rewrite uses through the alias table.
      auto rewrite = [&](VReg &r) {
        if (r < alias.size() && alias[r].stamp == stamp) {
          r = alias[r].src;
          ++rewritten;
        }
      };
      switch (inst.op) {
      case MirOp::Load:
      case MirOp::Lea:
        rewrite(inst.base);
        if (inst.index != kNoVReg)
          rewrite(inst.index);
        break;
      case MirOp::Store:
        rewrite(inst.a);
        rewrite(inst.base);
        if (inst.index != kNoVReg)
          rewrite(inst.index);
        break;
      case MirOp::Call:
        for (VReg &r : inst.args)
          rewrite(r);
        break;
      default:
        if (inst.a != kNoVReg)
          rewrite(inst.a);
        if (inst.b != kNoVReg)
          rewrite(inst.b);
        break;
      }

      VReg def = inst.def();
      if (def != kNoVReg) {
        // Any alias pointing at the redefined register is invalid now, as
        // is an alias FOR the redefined register.
        alias[def].stamp = 0;
        std::size_t kept = 0;
        for (VReg dst : live) {
          if (alias[dst].stamp != stamp)
            continue;
          if (alias[dst].src == def)
            alias[dst].stamp = 0;
          else
            live[kept++] = dst;
        }
        live.resize(kept);
        if (inst.op == MirOp::Copy && !inst.packed && inst.a != def) {
          alias[def] = Alias{stamp, inst.a};
          live.push_back(def);
        }
      }
    }
  }
  return rewritten;
}

std::size_t removeUnreachableBlocks(MirFunction &fn) {
  if (fn.blocks.empty())
    return 0;
  std::vector<bool> reachable(fn.blocks.size(), false);
  std::vector<std::uint32_t> work;
  work.reserve(fn.blocks.size());
  reachable[0] = true;
  work.push_back(0);
  while (!work.empty()) {
    std::uint32_t b = work.back();
    work.pop_back();
    for (std::uint32_t s : fn.blocks[b].successors()) {
      if (!reachable[s]) {
        reachable[s] = true;
        work.push_back(s);
      }
    }
  }
  std::size_t removed = 0;
  for (MirBlock &block : fn.blocks) {
    if (!reachable[block.id] && !block.insts.empty()) {
      removed += block.insts.size();
      block.insts.clear();
    }
  }
  return removed;
}

std::size_t eliminateDeadCode(MirFunction &fn) {
  // Reference counting, not liveness: an instruction dies once no
  // instruction reads its register, and its death releases its operands.
  // A value that only feeds itself (an unused loop accumulator) stays.
  std::vector<std::uint32_t> useCount = countUses(fn);
  enum : std::uint8_t {
    kLive,      // still read
    kPinned,    // never removed
    kDying,     // unread: its definitions die in this sweep
    kDyingNext, // became unread during this sweep
    kDead,      // its definitions are gone
  };
  std::vector<std::uint8_t> state(useCount.size(), kLive);
  // Loop descriptor anchors (induction/limit feed the canonical loop
  // shape) and parameters are preserved regardless of use counts.
  auto pin = [&](VReg r) {
    if (r != kNoVReg)
      state[r] = kPinned;
  };
  for (const LoopDescriptor &loop : fn.loops) {
    pin(loop.induction);
    pin(loop.limit);
  }
  for (VReg p : fn.paramRegs)
    pin(p);

  auto removable = [&](const MirInst &inst) {
    VReg def = inst.def();
    return def != kNoVReg && !inst.hasSideEffects() && state[def] != kPinned;
  };

  bool pending = false;
  for (std::size_t r = 0; r < state.size(); ++r) {
    if (state[r] == kLive && useCount[r] == 0) {
      state[r] = kDying;
      pending = true;
    }
  }
  // Each sweep kills every definition of the registers that were unread
  // when it started; registers its kills leave unread die in the next one.
  while (pending) {
    pending = false;
    for (const MirBlock &block : fn.blocks)
      for (const MirInst &inst : block.insts) {
        if (!removable(inst) || state[inst.def()] != kDying)
          continue;
        for (VReg r : inst.uses())
          if (--useCount[r] == 0 && state[r] == kLive) {
            state[r] = kDyingNext;
            pending = true;
          }
      }
    for (std::uint8_t &st : state)
      if (st == kDying)
        st = kDead;
      else if (st == kDyingNext)
        st = kDying;
  }

  std::size_t removed = 0;
  for (MirBlock &block : fn.blocks) {
    auto kept = std::remove_if(
        block.insts.begin(), block.insts.end(), [&](const MirInst &inst) {
          return removable(inst) && state[inst.def()] == kDead;
        });
    removed += static_cast<std::size_t>(block.insts.end() - kept);
    block.insts.erase(kept, block.insts.end());
  }
  return removed;
}

} // namespace mira::mir
