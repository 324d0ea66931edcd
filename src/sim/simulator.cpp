#include "sim/simulator.h"

#include <cmath>
#include <cstring>

namespace mira::sim {

using isa::InstrCategory;
using isa::Opcode;
using mir::kNoVReg;
using mir::LoopDescriptor;
using mir::MirBlock;
using mir::MirCmp;
using mir::MirFunction;
using mir::MirInst;
using mir::MirOp;
using mir::MirType;
using mir::VReg;

void Counters::add(const Counters &other) {
  for (std::size_t i = 0; i < categories.size(); ++i)
    categories[i] += other.categories[i];
  totalInstructions += other.totalInstructions;
  fpInstructions += other.fpInstructions;
  flops += other.flops;
}

double SimResult::fpiOf(const std::string &fn) const {
  auto it = functions.find(fn);
  return it == functions.end()
             ? 0.0
             : static_cast<double>(it->second.inclusive.fpInstructions);
}

double SimResult::fpiPerCall(const std::string &fn) const {
  auto it = functions.find(fn);
  if (it == functions.end() || it->second.calls == 0)
    return 0.0;
  return static_cast<double>(it->second.inclusive.fpInstructions) /
         static_cast<double>(it->second.calls);
}

const std::map<Opcode, std::uint32_t> &externCallCost(
    const std::string &name) {
  // Synthetic library-call footprints. mc_print formats a double, which
  // on a real libc retires a few floating-point instructions — invisible
  // to static analysis, hence part of the Mira-vs-measurement gap.
  static const std::map<std::string, std::map<Opcode, std::uint32_t>> table =
      {
          {"mc_clock",
           {{Opcode::MOV, 14},
            {Opcode::ADD, 4},
            {Opcode::SHL, 2},
            {Opcode::CALL, 1},
            {Opcode::RET, 1},
            {Opcode::CQO, 1}}},
          {"mc_print",
           {{Opcode::MOV, 46},
            {Opcode::ADD, 12},
            {Opcode::SUB, 6},
            {Opcode::IMUL, 4},
            {Opcode::IDIV, 3},
            {Opcode::CMP, 10},
            {Opcode::JNE, 8},
            {Opcode::JL, 3},
            {Opcode::MOVSD_RM, 3},
            {Opcode::MOVSD_MR, 2},
            {Opcode::MULSD, 2},
            {Opcode::DIVSD, 1},
            {Opcode::UCOMISD, 2},
            {Opcode::CVTTSD2SI, 1},
            {Opcode::CALL, 2},
            {Opcode::RET, 2}}},
          {"mc_print_int",
           {{Opcode::MOV, 30},
            {Opcode::ADD, 8},
            {Opcode::IDIV, 4},
            {Opcode::CMP, 6},
            {Opcode::JNE, 5},
            {Opcode::CALL, 1},
            {Opcode::RET, 1}}},
          {"mc_rand",
           {{Opcode::MOV, 6},
            {Opcode::IMUL, 2},
            {Opcode::ADD, 2},
            {Opcode::SHR, 2},
            {Opcode::CVTSI2SD, 1},
            {Opcode::MULSD, 1},
            {Opcode::RET, 1}}},
      };
  static const std::map<Opcode, std::uint32_t> fallback = {
      {Opcode::MOV, 10}, {Opcode::CALL, 1}, {Opcode::RET, 1}};
  auto it = table.find(name);
  return it == table.end() ? fallback : it->second;
}

namespace {

/// Precomputed retirement cost of one MIR instruction.
struct Cost {
  std::uint32_t total = 0;
  std::uint32_t fpi = 0;
  std::uint32_t flops = 0;
  std::vector<std::pair<std::uint8_t, std::uint16_t>> cats;

  void addOpcode(Opcode op, std::uint32_t n = 1) {
    total += n;
    if (isa::isFloatingPointArith(op)) {
      fpi += n;
      flops += n * static_cast<std::uint32_t>(isa::flopCount(op));
    }
    std::uint8_t cat = static_cast<std::uint8_t>(isa::defaultCategory(op));
    for (auto &[c, count] : cats) {
      if (c == cat) {
        count = static_cast<std::uint16_t>(count + n);
        return;
      }
    }
    cats.push_back({cat, static_cast<std::uint16_t>(n)});
  }

  void chargeInto(Counters &c, std::uint64_t times = 1) const {
    c.totalInstructions += static_cast<std::uint64_t>(total) * times;
    c.fpInstructions += static_cast<std::uint64_t>(fpi) * times;
    c.flops += static_cast<std::uint64_t>(flops) * times;
    for (const auto &[cat, n] : cats)
      c.categories[cat] += static_cast<std::uint64_t>(n) * times;
  }
};

struct FFInfo {
  bool executable = false;
  const LoopDescriptor *loop = nullptr;
  Cost headerTakenCost; // header when the loop continues (Jcc taken)
  Cost headerExitCost;  // header on the final, falling-through execution
  Cost bodyCost;        // body blocks + latch
};

/// Per-function execution plan.
struct FnExec {
  const MirFunction *fn = nullptr;
  std::vector<std::vector<Cost>> costs; // [block][inst]
  /// Branch instructions: cost when taken (the trailing fall-through JMP
  /// of the expansion does not retire). Parallel to `costs`.
  std::vector<std::vector<Cost>> takenCosts;
  Cost prologueCost;
  std::map<std::uint32_t, FFInfo> ffAtHeader;
};

struct Frame {
  const FnExec *fn = nullptr;
  std::vector<Value> regs;
  std::uint32_t block = 0;
  std::uint32_t inst = 0;
  std::size_t allocaMark = 0;
  Counters counters;
  VReg resultDst = kNoVReg; // caller-side destination for the return value
};

bool cmpEval(MirCmp cmp, bool isFloat, const Value &a, const Value &b) {
  if (isFloat) {
    switch (cmp) {
    case MirCmp::Lt:
      return a.f < b.f;
    case MirCmp::Le:
      return a.f <= b.f;
    case MirCmp::Gt:
      return a.f > b.f;
    case MirCmp::Ge:
      return a.f >= b.f;
    case MirCmp::Eq:
      return a.f == b.f;
    case MirCmp::Ne:
      return a.f != b.f;
    }
  } else {
    switch (cmp) {
    case MirCmp::Lt:
      return a.i < b.i;
    case MirCmp::Le:
      return a.i <= b.i;
    case MirCmp::Gt:
      return a.i > b.i;
    case MirCmp::Ge:
      return a.i >= b.i;
    case MirCmp::Eq:
      return a.i == b.i;
    case MirCmp::Ne:
      return a.i != b.i;
    }
  }
  return false;
}

class Machine {
public:
  Machine(const mir::MirModule &module,
          const std::vector<codegen::CodegenResult> &cg,
          const SimOptions &options)
      : module_(module), options_(options) {
    memory_.resize(1 << 20);
    bump_ = 16;
    plans_.resize(module.functions.size());
    for (std::size_t i = 0; i < module.functions.size(); ++i)
      buildPlan(plans_[i], module.functions[i], cg[i]);
  }

  SimResult run(const std::string &entry, const std::vector<Value> &args) {
    SimResult result;
    const FnExec *fn = findPlan(entry);
    if (!fn) {
      result.error = "no such function: " + entry;
      return result;
    }
    if (args.size() != fn->fn->paramRegs.size()) {
      result.error = "argument count mismatch for " + entry;
      return result;
    }

    Frame frame;
    enterFunction(frame, fn, args);
    frames_.push_back(std::move(frame));

    while (!frames_.empty()) {
      if (!step()) {
        if (!error_.empty()) {
          result.error = error_;
          return result;
        }
        break;
      }
      if (retired_ > options_.maxInstructions) {
        result.error = "instruction budget exceeded";
        return result;
      }
    }

    result.ok = true;
    result.returnValue = returnValue_;
    result.total = totalCounters_;
    result.functions = profiles_;
    result.printed = printed_;
    return result;
  }

private:
  const FnExec *findPlan(const std::string &name) const {
    for (std::size_t i = 0; i < module_.functions.size(); ++i)
      if (module_.functions[i].name == name)
        return &plans_[i];
    return nullptr;
  }

  void buildPlan(FnExec &plan, const MirFunction &fn,
                 const codegen::CodegenResult &cg) {
    plan.fn = &fn;
    plan.costs.resize(fn.blocks.size());
    plan.takenCosts.resize(fn.blocks.size());
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      plan.costs[b].resize(fn.blocks[b].insts.size());
      plan.takenCosts[b].resize(fn.blocks[b].insts.size());
      for (std::size_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
        Cost &cost = plan.costs[b][i];
        const codegen::ExpansionMap::Range run =
            cg.map.range(static_cast<std::uint32_t>(b),
                         static_cast<std::uint32_t>(i));
        for (std::uint32_t mi = run.begin; mi < run.end; ++mi)
          cost.addOpcode(cg.machine.instructions[mi].opcode);
        // A taken conditional branch does not retire the trailing
        // unconditional JMP of its expansion.
        if (fn.blocks[b].insts[i].op == MirOp::Branch) {
          Cost &taken = plan.takenCosts[b][i];
          std::uint32_t end = run.end;
          if (end > run.begin &&
              isa::isUnconditionalJump(
                  cg.machine.instructions[end - 1].opcode))
            --end;
          for (std::uint32_t mi = run.begin; mi < end; ++mi)
            taken.addOpcode(cg.machine.instructions[mi].opcode);
        }
      }
    }
    for (std::uint32_t mi = 0; mi < cg.map.prologueEnd; ++mi)
      plan.prologueCost.addOpcode(cg.machine.instructions[mi].opcode);

    // Fast-forward eligibility per loop.
    for (const LoopDescriptor &loop : fn.loops) {
      if (!loop.ffEligible || loop.bodyBlocks.size() != 1)
        continue;
      std::uint32_t bodyId = *loop.bodyBlocks.begin();
      const MirBlock &body = fn.blocks[bodyId];
      bool straightLine = true;
      for (std::size_t i = 0; i < body.insts.size(); ++i) {
        const MirInst &inst = body.insts[i];
        if (inst.op == MirOp::Call || inst.op == MirOp::Branch ||
            inst.op == MirOp::Alloca)
          straightLine = false;
        if (inst.op == MirOp::Jump &&
            (i + 1 != body.insts.size() || inst.target != loop.latch))
          straightLine = false;
      }
      if (!straightLine)
        continue;
      FFInfo info;
      info.executable = true;
      info.loop = &loop;
      const MirBlock &header = fn.blocks[loop.header];
      for (std::size_t i = 0; i < header.insts.size(); ++i) {
        accumulate(info.headerExitCost, plan.costs[loop.header][i]);
        accumulate(info.headerTakenCost,
                   header.insts[i].op == MirOp::Branch
                       ? plan.takenCosts[loop.header][i]
                       : plan.costs[loop.header][i]);
      }
      for (const Cost &c : plan.costs[bodyId])
        accumulate(info.bodyCost, c);
      for (const Cost &c : plan.costs[loop.latch])
        accumulate(info.bodyCost, c);
      plan.ffAtHeader[loop.header] = std::move(info);
    }
  }

  static void accumulate(Cost &into, const Cost &c) {
    into.total += c.total;
    into.fpi += c.fpi;
    into.flops += c.flops;
    for (const auto &[cat, n] : c.cats) {
      bool merged = false;
      for (auto &[c2, n2] : into.cats)
        if (c2 == cat) {
          n2 = static_cast<std::uint16_t>(n2 + n);
          merged = true;
        }
      if (!merged)
        into.cats.push_back({cat, n});
    }
  }

  void enterFunction(Frame &frame, const FnExec *fn,
                     const std::vector<Value> &args) {
    frame.fn = fn;
    frame.regs.assign(fn->fn->vregTypes.size(), Value{});
    for (std::size_t i = 0; i < args.size(); ++i)
      frame.regs[fn->fn->paramRegs[i]] = args[i];
    frame.block = 0;
    frame.inst = 0;
    frame.allocaMark = bump_;
    fn->prologueCost.chargeInto(frame.counters);
    retired_ += fn->prologueCost.total;
  }

  // -------- memory ------------------------------------------------------
  bool checkRange(std::uint64_t addr, std::size_t size) {
    if (addr < 16 || addr + size > memory_.size()) {
      if (addr >= 16 && addr + size < (1ull << 32)) {
        memory_.resize(std::max<std::size_t>(memory_.size() * 2,
                                             addr + size + 4096));
        return true;
      }
      error_ = "memory access out of range at address " +
               std::to_string(addr);
      return false;
    }
    return true;
  }

  std::uint64_t allocate(std::uint64_t bytes) {
    bump_ = (bump_ + 15) & ~15ull;
    std::uint64_t addr = bump_;
    bump_ += bytes;
    if (bump_ > memory_.size())
      memory_.resize(std::max<std::size_t>(memory_.size() * 2, bump_ + 4096));
    return addr;
  }

  template <typename T> bool loadMem(std::uint64_t addr, T &out) {
    if (!checkRange(addr, sizeof(T)))
      return false;
    std::memcpy(&out, memory_.data() + addr, sizeof(T));
    return true;
  }
  template <typename T> bool storeMem(std::uint64_t addr, T value) {
    if (!checkRange(addr, sizeof(T)))
      return false;
    std::memcpy(memory_.data() + addr, &value, sizeof(T));
    return true;
  }

  // -------- execution ---------------------------------------------------

  std::uint64_t effectiveAddress(const Frame &frame, const MirInst &inst) {
    std::uint64_t addr =
        static_cast<std::uint64_t>(frame.regs[inst.base].i);
    if (inst.index != kNoVReg)
      addr += static_cast<std::uint64_t>(frame.regs[inst.index].i) *
              static_cast<std::uint64_t>(inst.scale);
    addr += static_cast<std::uint64_t>(static_cast<std::int64_t>(inst.disp));
    return addr;
  }

  /// Execute one MIR instruction; returns false to stop (error or done).
  bool step() {
    Frame &frame = frames_.back();
    const MirFunction &fn = *frame.fn->fn;

    // Fast-forward check at header entry.
    if (options_.fastForward && frame.inst == 0) {
      auto it = frame.fn->ffAtHeader.find(frame.block);
      if (it != frame.fn->ffAtHeader.end() && it->second.executable) {
        const FFInfo &info = it->second;
        const LoopDescriptor &loop = *info.loop;
        std::int64_t ind = frame.regs[loop.induction].i;
        std::int64_t limit = frame.regs[loop.limit].i;
        std::int64_t trips = 0;
        if (ind < limit)
          trips = (limit - ind + loop.step - 1) / loop.step;
        info.headerTakenCost.chargeInto(frame.counters,
                                        static_cast<std::uint64_t>(trips));
        info.headerExitCost.chargeInto(frame.counters, 1);
        info.bodyCost.chargeInto(frame.counters,
                                 static_cast<std::uint64_t>(trips));
        retired_ += info.headerTakenCost.total * trips +
                    info.headerExitCost.total +
                    info.bodyCost.total * trips;
        frame.regs[loop.induction].i = ind + trips * loop.step;
        frame.block = loop.exit;
        frame.inst = 0;
        return true;
      }
    }

    const MirBlock &block = fn.blocks[frame.block];
    if (frame.inst >= block.insts.size()) {
      // Block without terminator (unreachable continuation): treat as
      // function end for void functions.
      return popFrame(Value{});
    }
    const MirInst &inst = block.insts[frame.inst];
    const Cost *cost = &frame.fn->costs[frame.block][frame.inst];
    if (inst.op == MirOp::Branch && frame.regs[inst.a].i != 0)
      cost = &frame.fn->takenCosts[frame.block][frame.inst];
    cost->chargeInto(frame.counters);
    retired_ += cost->total;

    auto &regs = frame.regs;
    switch (inst.op) {
    case MirOp::Nop:
      break;
    case MirOp::ConstI:
      regs[inst.dst].i = inst.imm;
      break;
    case MirOp::ConstF:
      regs[inst.dst].f = inst.fimm;
      if (inst.packed)
        regs[inst.dst].f2 = inst.fimm;
      break;
    case MirOp::Copy:
      regs[inst.dst] = regs[inst.a];
      break;
    case MirOp::Add:
      regs[inst.dst].i = mir::wrapAdd(regs[inst.a].i, regs[inst.b].i);
      break;
    case MirOp::Sub:
      regs[inst.dst].i = mir::wrapSub(regs[inst.a].i, regs[inst.b].i);
      break;
    case MirOp::Mul:
      regs[inst.dst].i = mir::wrapMul(regs[inst.a].i, regs[inst.b].i);
      break;
    case MirOp::Div:
    case MirOp::Rem: {
      // IDIV traps on a zero divisor and on INT64_MIN / -1 alike.
      const std::int64_t a = regs[inst.a].i, b = regs[inst.b].i;
      if (mir::divisionTraps(a, b)) {
        error_ = std::string("integer ") +
                 (inst.op == MirOp::Div ? "division" : "remainder") +
                 (b == 0 ? " by zero" : " overflow") + " at line " +
                 std::to_string(inst.line);
        return false;
      }
      regs[inst.dst].i = inst.op == MirOp::Div ? a / b : a % b;
      break;
    }
    case MirOp::Neg:
      regs[inst.dst].i = mir::wrapNeg(regs[inst.a].i);
      break;
    case MirOp::IMin:
      regs[inst.dst].i = std::min(regs[inst.a].i, regs[inst.b].i);
      break;
    case MirOp::IMax:
      regs[inst.dst].i = std::max(regs[inst.a].i, regs[inst.b].i);
      break;
    case MirOp::And:
      regs[inst.dst].i = regs[inst.a].i & regs[inst.b].i;
      break;
    case MirOp::Or:
      regs[inst.dst].i = regs[inst.a].i | regs[inst.b].i;
      break;
    case MirOp::Xor:
      regs[inst.dst].i = regs[inst.a].i ^ regs[inst.b].i;
      break;
    case MirOp::Not:
      regs[inst.dst].i = ~regs[inst.a].i;
      break;
    case MirOp::Shl:
      regs[inst.dst].i = regs[inst.a].i << regs[inst.b].i;
      break;
    case MirOp::Shr:
      regs[inst.dst].i = regs[inst.a].i >> regs[inst.b].i;
      break;
    case MirOp::ICmp:
      regs[inst.dst].i =
          cmpEval(inst.cmp, false, regs[inst.a], regs[inst.b]) ? 1 : 0;
      break;
    case MirOp::FCmp:
      regs[inst.dst].i =
          cmpEval(inst.cmp, true, regs[inst.a], regs[inst.b]) ? 1 : 0;
      break;
    case MirOp::FAdd:
      regs[inst.dst].f = regs[inst.a].f + regs[inst.b].f;
      if (inst.packed)
        regs[inst.dst].f2 = regs[inst.a].f2 + regs[inst.b].f2;
      break;
    case MirOp::FSub:
      regs[inst.dst].f = regs[inst.a].f - regs[inst.b].f;
      if (inst.packed)
        regs[inst.dst].f2 = regs[inst.a].f2 - regs[inst.b].f2;
      break;
    case MirOp::FMul:
      regs[inst.dst].f = regs[inst.a].f * regs[inst.b].f;
      if (inst.packed)
        regs[inst.dst].f2 = regs[inst.a].f2 * regs[inst.b].f2;
      break;
    case MirOp::FDiv:
      regs[inst.dst].f = regs[inst.a].f / regs[inst.b].f;
      if (inst.packed)
        regs[inst.dst].f2 = regs[inst.a].f2 / regs[inst.b].f2;
      break;
    case MirOp::FNeg:
      regs[inst.dst].f = -regs[inst.a].f;
      if (inst.packed)
        regs[inst.dst].f2 = -regs[inst.a].f2;
      break;
    case MirOp::FSqrt:
      regs[inst.dst].f = std::sqrt(regs[inst.a].f);
      if (inst.packed)
        regs[inst.dst].f2 = std::sqrt(regs[inst.a].f2);
      break;
    case MirOp::FAbs:
      regs[inst.dst].f = std::fabs(regs[inst.a].f);
      break;
    case MirOp::FMin:
      regs[inst.dst].f = std::min(regs[inst.a].f, regs[inst.b].f);
      if (inst.packed)
        regs[inst.dst].f2 = std::min(regs[inst.a].f2, regs[inst.b].f2);
      break;
    case MirOp::FMax:
      regs[inst.dst].f = std::max(regs[inst.a].f, regs[inst.b].f);
      if (inst.packed)
        regs[inst.dst].f2 = std::max(regs[inst.a].f2, regs[inst.b].f2);
      break;
    case MirOp::FHAdd:
      regs[inst.dst].f = regs[inst.a].f + regs[inst.a].f2;
      break;
    case MirOp::FSplat:
      regs[inst.dst].f = regs[inst.a].f;
      regs[inst.dst].f2 = regs[inst.a].f;
      break;
    case MirOp::Load: {
      std::uint64_t addr = effectiveAddress(frame, inst);
      if (inst.packed) {
        if (!loadMem(addr, regs[inst.dst].f) ||
            !loadMem(addr + 8, regs[inst.dst].f2))
          return false;
      } else if (inst.type == MirType::F64) {
        if (!loadMem(addr, regs[inst.dst].f))
          return false;
      } else if (inst.type == MirType::F32) {
        float v = 0;
        if (!loadMem(addr, v))
          return false;
        regs[inst.dst].f = v;
      } else {
        if (!loadMem(addr, regs[inst.dst].i))
          return false;
      }
      break;
    }
    case MirOp::Store: {
      std::uint64_t addr = effectiveAddress(frame, inst);
      if (inst.packed) {
        if (!storeMem(addr, regs[inst.a].f) ||
            !storeMem(addr + 8, regs[inst.a].f2))
          return false;
      } else if (inst.type == MirType::F64) {
        if (!storeMem(addr, regs[inst.a].f))
          return false;
      } else if (inst.type == MirType::F32) {
        if (!storeMem(addr, static_cast<float>(regs[inst.a].f)))
          return false;
      } else {
        if (!storeMem(addr, regs[inst.a].i))
          return false;
      }
      break;
    }
    case MirOp::Lea:
      regs[inst.dst].i =
          static_cast<std::int64_t>(effectiveAddress(frame, inst));
      break;
    case MirOp::Alloca: {
      std::uint64_t bytes = static_cast<std::uint64_t>(regs[inst.a].i) *
                            static_cast<std::uint64_t>(inst.imm);
      if (bytes > (1ull << 33)) {
        error_ = "allocation too large: " + std::to_string(bytes);
        return false;
      }
      regs[inst.dst].i = static_cast<std::int64_t>(allocate(bytes));
      break;
    }
    case MirOp::Cast: {
      bool fromFP =
          inst.fromType == MirType::F64 || inst.fromType == MirType::F32;
      bool toFP = inst.type == MirType::F64 || inst.type == MirType::F32;
      if (!fromFP && toFP)
        regs[inst.dst].f = static_cast<double>(regs[inst.a].i);
      else if (fromFP && !toFP)
        regs[inst.dst].i = static_cast<std::int64_t>(regs[inst.a].f);
      else if (fromFP && toFP)
        regs[inst.dst].f = inst.type == MirType::F32
                               ? static_cast<float>(regs[inst.a].f)
                               : regs[inst.a].f;
      else
        regs[inst.dst].i = regs[inst.a].i;
      break;
    }
    case MirOp::Jump:
      frame.block = inst.target;
      frame.inst = 0;
      return true;
    case MirOp::Branch:
      frame.block = regs[inst.a].i != 0 ? inst.target : inst.targetFalse;
      frame.inst = 0;
      return true;
    case MirOp::Ret: {
      Value result{};
      if (inst.a != kNoVReg)
        result = regs[inst.a];
      return popFrame(result);
    }
    case MirOp::Call:
      return doCall(frame, inst);
    }

    ++frame.inst;
    if (frame.inst >= block.insts.size() && !block.terminator()) {
      // fall off a block with no terminator (only possible for the
      // synthetic unreachable continuation blocks): stop the function.
      return popFrame(Value{});
    }
    return true;
  }

  bool doCall(Frame &frame, const MirInst &inst) {
    ++frame.inst; // resume after the call
    if (inst.externCall) {
      Cost cost;
      for (const auto &[op, n] : externCallCost(inst.callee))
        cost.addOpcode(op, n);
      cost.chargeInto(frame.counters);
      retired_ += cost.total;
      Value result{};
      if (inst.callee == "mc_clock") {
        result.f = static_cast<double>(retired_) * 1e-9;
      } else if (inst.callee == "mc_rand") {
        rngState_ = rngState_ * 6364136223846793005ull + 1442695040888963407ull;
        result.f =
            static_cast<double>((rngState_ >> 11) & ((1ull << 53) - 1)) /
            static_cast<double>(1ull << 53);
      } else if (inst.callee == "mc_print") {
        printed_.push_back(frame.regs[inst.args[0]].f);
      } else if (inst.callee == "mc_print_int") {
        printed_.push_back(static_cast<double>(frame.regs[inst.args[0]].i));
      }
      if (inst.dst != kNoVReg)
        frame.regs[inst.dst] = result;
      return true;
    }

    const FnExec *callee = findPlan(inst.callee);
    if (!callee) {
      error_ = "call to unknown function '" + inst.callee + "'";
      return false;
    }
    std::vector<Value> args;
    args.reserve(inst.args.size());
    for (VReg r : inst.args)
      args.push_back(frame.regs[r]);

    Frame next;
    next.resultDst = inst.dst;
    enterFunction(next, callee, args);
    frames_.push_back(std::move(next));
    return true;
  }

  bool popFrame(const Value &result) {
    Frame finished = std::move(frames_.back());
    frames_.pop_back();
    bump_ = finished.allocaMark;

    FunctionProfile &profile = profiles_[finished.fn->fn->name];
    profile.calls += 1;
    profile.inclusive.add(finished.counters);

    if (frames_.empty()) {
      totalCounters_.add(finished.counters);
      returnValue_ = result;
      return false; // done
    }
    Frame &parent = frames_.back();
    parent.counters.add(finished.counters);
    if (finished.resultDst != kNoVReg)
      parent.regs[finished.resultDst] = result;
    return true;
  }

  const mir::MirModule &module_;
  SimOptions options_;
  std::vector<FnExec> plans_;
  std::vector<Frame> frames_;
  std::vector<std::uint8_t> memory_;
  std::uint64_t bump_ = 16;
  std::uint64_t retired_ = 0;
  std::uint64_t rngState_ = 0x9E3779B97F4A7C15ull;
  std::string error_;
  Counters totalCounters_;
  std::map<std::string, FunctionProfile> profiles_;
  std::vector<double> printed_;
  Value returnValue_;
};

} // namespace

Simulator::Simulator(const mir::MirModule &module,
                     const std::vector<codegen::CodegenResult> &codegen)
    : module_(module), codegen_(codegen) {}

SimResult Simulator::run(const std::string &function,
                         const std::vector<Value> &args,
                         const SimOptions &options) {
  Machine machine(module_, codegen_, options);
  return machine.run(function, args);
}

} // namespace mira::sim
