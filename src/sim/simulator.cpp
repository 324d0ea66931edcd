#include "sim/simulator.h"

#include <cmath>
#include <cstring>

namespace mira::sim {

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

inline constexpr std::uint32_t kNone = 0xFFFFFFFF;

/// Retirement cost of one instruction (or of a run of them): totals, and
/// per-category counts in Plan::categories[catBegin, catEnd).
struct Cost {
  std::uint32_t total = 0;
  std::uint32_t fpi = 0;
  std::uint32_t flops = 0;
  std::uint32_t catBegin = 0;
  std::uint32_t catEnd = 0;
};

struct CategoryCount {
  std::uint8_t category;
  std::uint16_t count;
};

/// One Cost being summed before Plan::addCost appends it.
struct CostBuilder {
  Cost totals;
  std::uint32_t size = 0;
  CategoryCount categories[isa::kNumCategories];

  void addCategory(std::uint8_t category, std::uint32_t n) {
    for (std::uint32_t i = 0; i < size; ++i) {
      if (categories[i].category == category) {
        categories[i].count =
            static_cast<std::uint16_t>(categories[i].count + n);
        return;
      }
    }
    categories[size++] = {category, static_cast<std::uint16_t>(n)};
  }

  void addOpcode(Opcode op, std::uint32_t n = 1) {
    totals.total += n;
    if (isa::isFloatingPointArith(op)) {
      totals.fpi += n;
      totals.flops += n * static_cast<std::uint32_t>(isa::flopCount(op));
    }
    addCategory(static_cast<std::uint8_t>(isa::defaultCategory(op)), n);
  }
};

/// How a call site's callee resolved: a function of the image; one of
/// the externs mc_clock, mc_rand, mc_print and mc_print_int; another
/// extern, which returns 0; or no function of that name, an error when
/// the call runs.
enum class Callee : std::uint8_t {
  Function,
  Clock,
  Rand,
  Print,
  PrintInt,
  OtherExtern,
  Unknown,
};

/// One MIR instruction in the simulator's compact form: 40 bytes, where
/// a MirInst takes 128. The union holds what the op reads beyond its
/// registers.
struct Inst {
  MirOp op = MirOp::Nop;
  MirType type = MirType::I64;
  MirType fromType = MirType::I64; // Cast
  MirCmp cmp = MirCmp::Lt;         // ICmp, FCmp
  bool packed = false;
  std::uint32_t cost = 0; // into Plan::costs
  VReg dst = kNoVReg;
  VReg a = kNoVReg;
  VReg b = kNoVReg;
  union {
    std::int64_t imm = 0; // ConstI; Alloca: element size
    double fimm;          // ConstF
    std::uint32_t line;   // Div, Rem: reported when they trap
    struct {
      VReg base;
      VReg index;
      std::int32_t scale;
      std::int32_t disp;
    } address; // Load, Store, Lea: base + index*scale + disp
    struct {
      std::uint32_t target;      // into Plan::blocks
      std::uint32_t targetFalse; // Branch
      std::uint32_t takenCost;   // Branch: retired when it jumps
    } branch;                    // Jump, Branch
    struct {
      /// Function: into Plan::functions; an extern: its cost; Unknown:
      /// into Plan::unknownCallees.
      std::uint32_t target;
      std::uint32_t argBegin; // into Plan::registers
      std::uint32_t argCount;
      Callee callee;
    } call;
  };
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

Callee externCallee(const std::string &name) {
  if (name == "mc_clock")
    return Callee::Clock;
  if (name == "mc_rand")
    return Callee::Rand;
  if (name == "mc_print")
    return Callee::Print;
  if (name == "mc_print_int")
    return Callee::PrintInt;
  return Callee::OtherExtern;
}

} // namespace

struct Image::Plan {
  struct Function {
    std::string name;
    std::uint32_t firstBlock = 0; // into blocks
    std::uint32_t registers = 0;
    std::uint32_t paramBegin = 0; // into registers
    std::uint32_t paramCount = 0;
    std::uint32_t prologueCost = 0;
  };
  /// A block runs from its `begin` to the next block's: every function's
  /// blocks are stored in order, and an end sentinel follows the last.
  struct Block {
    std::uint32_t begin = 0; // into insts
    std::uint32_t loop = kNone; // a fast-forward loop with this header
  };
  /// A loop fast-forward mode charges analytically: a straight-line body
  /// under '#pragma @Simulate {ff:yes}'.
  struct Loop {
    VReg induction = kNoVReg;
    VReg limit = kNoVReg;
    std::int64_t step = 1;
    std::uint32_t exit = 0;            // into blocks
    std::uint32_t headerTakenCost = 0; // the header when the loop goes on
    std::uint32_t headerExitCost = 0;  // the header on the final test
    std::uint32_t bodyCost = 0;        // the body block and the latch
  };

  std::vector<Function> functions;
  std::vector<Block> blocks;
  std::vector<Inst> insts;
  std::vector<VReg> registers; // parameters and call arguments
  std::vector<Cost> costs;
  std::vector<CategoryCount> categories;
  std::vector<Loop> loops;
  std::vector<std::string> unknownCallees;

  Plan(const mir::MirModule &module,
       const std::vector<codegen::CodegenResult> &codegen);

  std::uint32_t addCost(const CostBuilder &builder) {
    Cost cost = builder.totals;
    cost.catBegin = static_cast<std::uint32_t>(categories.size());
    categories.insert(categories.end(), builder.categories,
                      builder.categories + builder.size);
    cost.catEnd = static_cast<std::uint32_t>(categories.size());
    costs.push_back(cost);
    return static_cast<std::uint32_t>(costs.size() - 1);
  }

  void addInto(CostBuilder &builder, std::uint32_t index) const {
    const Cost &cost = costs[index];
    builder.totals.total += cost.total;
    builder.totals.fpi += cost.fpi;
    builder.totals.flops += cost.flops;
    for (std::uint32_t k = cost.catBegin; k < cost.catEnd; ++k)
      builder.addCategory(categories[k].category, categories[k].count);
  }

  void addFunction(const MirFunction &fn, const codegen::CodegenResult &cg,
                   const mir::MirModule &module);
  void addFastForwardLoops(const MirFunction &fn, std::uint32_t firstBlock);
};

Image::Plan::Plan(const mir::MirModule &module,
                  const std::vector<codegen::CodegenResult> &codegen) {
  // An image lives as long as its cache entry, so it holds no slack:
  // everything but the category counts is sized exactly up front, and
  // those are trimmed at the end.
  std::size_t blockCount = 1, instCount = 0, registerCount = 0,
              costCount = 0;
  for (const MirFunction &fn : module.functions) {
    blockCount += fn.blocks.size();
    registerCount += fn.paramRegs.size();
    ++costCount; // the prologue
    for (const MirBlock &block : fn.blocks) {
      instCount += block.insts.size();
      costCount += block.insts.size();
      for (const MirInst &inst : block.insts) {
        costCount += inst.op == MirOp::Branch || inst.externCall;
        registerCount += inst.args.size();
      }
    }
    for (const LoopDescriptor &loop : fn.loops)
      costCount += loop.ffEligible && loop.bodyBlocks.size() == 1 ? 3 : 0;
  }
  functions.reserve(module.functions.size());
  blocks.reserve(blockCount);
  insts.reserve(instCount);
  registers.reserve(registerCount);
  costs.reserve(costCount);

  for (std::size_t f = 0; f < module.functions.size(); ++f)
    addFunction(module.functions[f], codegen[f], module);
  blocks.push_back({static_cast<std::uint32_t>(insts.size()), kNone});
  for (std::size_t f = 0; f < module.functions.size(); ++f)
    addFastForwardLoops(module.functions[f], functions[f].firstBlock);
  categories.shrink_to_fit();
}

void Image::Plan::addFunction(const MirFunction &fn,
                              const codegen::CodegenResult &cg,
                              const mir::MirModule &module) {
  const std::vector<isa::Instruction> &machine = cg.machine.instructions;
  Function function;
  function.name = fn.name;
  function.firstBlock = static_cast<std::uint32_t>(blocks.size());
  function.registers = static_cast<std::uint32_t>(fn.vregTypes.size());
  function.paramBegin = static_cast<std::uint32_t>(registers.size());
  function.paramCount = static_cast<std::uint32_t>(fn.paramRegs.size());
  registers.insert(registers.end(), fn.paramRegs.begin(), fn.paramRegs.end());
  CostBuilder prologue;
  for (std::uint32_t mi = 0; mi < cg.map.prologueEnd; ++mi)
    prologue.addOpcode(machine[mi].opcode);
  function.prologueCost = addCost(prologue);

  for (std::uint32_t b = 0; b < fn.blocks.size(); ++b) {
    blocks.push_back({static_cast<std::uint32_t>(insts.size()), kNone});
    const MirBlock &block = fn.blocks[b];
    for (std::uint32_t i = 0; i < block.insts.size(); ++i) {
      const MirInst &mi = block.insts[i];
      const codegen::ExpansionMap::Range run = cg.map.range(b, i);
      CostBuilder cost;
      for (std::uint32_t m = run.begin; m < run.end; ++m)
        cost.addOpcode(machine[m].opcode);

      Inst inst;
      inst.op = mi.op;
      inst.type = mi.type;
      inst.fromType = mi.fromType;
      inst.cmp = mi.cmp;
      inst.packed = mi.packed;
      inst.cost = addCost(cost);
      inst.dst = mi.dst;
      inst.a = mi.a;
      inst.b = mi.b;
      switch (mi.op) {
      case MirOp::ConstI:
      case MirOp::Alloca:
        inst.imm = mi.imm;
        break;
      case MirOp::ConstF:
        inst.fimm = mi.fimm;
        break;
      case MirOp::Div:
      case MirOp::Rem:
        inst.line = mi.line;
        break;
      case MirOp::Load:
      case MirOp::Store:
      case MirOp::Lea:
        inst.address = {mi.base, mi.index, mi.scale, mi.disp};
        break;
      case MirOp::Jump:
      case MirOp::Branch: {
        inst.branch = {function.firstBlock + mi.target,
                       function.firstBlock + mi.targetFalse, inst.cost};
        if (mi.op != MirOp::Branch)
          break;
        // A taken conditional branch does not retire the trailing
        // unconditional JMP of its expansion.
        CostBuilder taken;
        std::uint32_t end = run.end;
        if (end > run.begin &&
            isa::isUnconditionalJump(machine[end - 1].opcode))
          --end;
        for (std::uint32_t m = run.begin; m < end; ++m)
          taken.addOpcode(machine[m].opcode);
        inst.branch.takenCost = addCost(taken);
        break;
      }
      case MirOp::Call: {
        inst.call.argBegin = static_cast<std::uint32_t>(registers.size());
        inst.call.argCount = static_cast<std::uint32_t>(mi.args.size());
        registers.insert(registers.end(), mi.args.begin(), mi.args.end());
        if (mi.externCall) {
          inst.call.callee = externCallee(mi.callee);
          CostBuilder library;
          for (const auto &[op, n] : externCallCost(mi.callee))
            library.addOpcode(op, n);
          inst.call.target = addCost(library);
          break;
        }
        // Functions are laid out in module order, so a callee's index is
        // its position in the module; the first of a name wins.
        inst.call.callee = Callee::Unknown;
        for (std::uint32_t f = 0; f < module.functions.size(); ++f) {
          if (module.functions[f].name == mi.callee) {
            inst.call.callee = Callee::Function;
            inst.call.target = f;
            break;
          }
        }
        if (inst.call.callee == Callee::Unknown) {
          inst.call.target = static_cast<std::uint32_t>(unknownCallees.size());
          unknownCallees.push_back(mi.callee);
        }
        break;
      }
      default:
        break;
      }
      insts.push_back(inst);
    }
  }
  functions.push_back(std::move(function));
}

void Image::Plan::addFastForwardLoops(const MirFunction &fn,
                                      std::uint32_t firstBlock) {
  for (const LoopDescriptor &loop : fn.loops) {
    if (!loop.ffEligible || loop.bodyBlocks.size() != 1)
      continue;
    const std::uint32_t bodyId = *loop.bodyBlocks.begin();
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
    CostBuilder headerTaken, headerExit, bodyCost;
    const std::uint32_t header = firstBlock + loop.header;
    for (std::uint32_t i = blocks[header].begin; i < blocks[header + 1].begin;
         ++i) {
      addInto(headerExit, insts[i].cost);
      addInto(headerTaken, insts[i].op == MirOp::Branch
                               ? insts[i].branch.takenCost
                               : insts[i].cost);
    }
    for (std::uint32_t id : {bodyId, loop.latch}) {
      const std::uint32_t b = firstBlock + id;
      for (std::uint32_t i = blocks[b].begin; i < blocks[b + 1].begin; ++i)
        addInto(bodyCost, insts[i].cost);
    }
    blocks[header].loop = static_cast<std::uint32_t>(loops.size());
    loops.push_back({loop.induction, loop.limit, loop.step,
                     firstBlock + loop.exit, addCost(headerTaken),
                     addCost(headerExit), addCost(bodyCost)});
  }
}

class Image::Machine {
public:
  Machine(const Plan &plan, const SimOptions &options)
      : plan_(plan), options_(options), profiles_(plan.functions.size()) {
    memory_.resize(1 << 20);
  }

  SimResult run(const std::string &entry, const std::vector<Value> &args) {
    SimResult result;
    std::uint32_t fn = kNone;
    for (std::uint32_t i = 0; i < plan_.functions.size() && fn == kNone; ++i)
      if (plan_.functions[i].name == entry)
        fn = i;
    if (fn == kNone) {
      result.error = "no such function: " + entry;
      return result;
    }
    const Plan::Function &function = plan_.functions[fn];
    if (args.size() != function.paramCount) {
      result.error = "argument count mismatch for " + entry;
      return result;
    }

    Frame frame;
    enterFunction(frame, fn);
    for (std::size_t i = 0; i < args.size(); ++i)
      regs_[frame.regBase + plan_.registers[function.paramBegin + i]] =
          args[i];
    frames_.push_back(frame);

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
    // Profiles are kept by function index; a name shared by two
    // functions would sum into one entry.
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      if (profiles_[i].calls == 0)
        continue;
      FunctionProfile &profile = result.functions[plan_.functions[i].name];
      profile.calls += profiles_[i].calls;
      profile.inclusive.add(profiles_[i].inclusive);
    }
    result.printed = std::move(printed_);
    return result;
  }

private:
  struct Frame {
    std::uint32_t fn = 0;      // into Plan::functions
    std::uint32_t block = 0;   // into Plan::blocks
    std::uint32_t inst = 0;    // into Plan::insts
    std::uint32_t regBase = 0; // the frame's registers in regs_
    std::size_t allocaMark = 0;
    VReg resultDst = kNoVReg; // caller-side destination for the return value
    Counters counters;
  };

  void charge(const Cost &cost, Counters &c, std::uint64_t times = 1) {
    c.totalInstructions += static_cast<std::uint64_t>(cost.total) * times;
    c.fpInstructions += static_cast<std::uint64_t>(cost.fpi) * times;
    c.flops += static_cast<std::uint64_t>(cost.flops) * times;
    for (std::uint32_t k = cost.catBegin; k < cost.catEnd; ++k)
      c.categories[plan_.categories[k].category] +=
          static_cast<std::uint64_t>(plan_.categories[k].count) * times;
  }

  /// Start `frame` at the entry of function `fn`, with zeroed registers
  /// on top of the register stack.
  void enterFunction(Frame &frame, std::uint32_t fn) {
    const Plan::Function &function = plan_.functions[fn];
    frame.fn = fn;
    frame.regBase = static_cast<std::uint32_t>(regs_.size());
    regs_.resize(regs_.size() + function.registers);
    frame.block = function.firstBlock;
    frame.inst = plan_.blocks[function.firstBlock].begin;
    frame.allocaMark = bump_;
    const Cost &prologue = plan_.costs[function.prologueCost];
    charge(prologue, frame.counters);
    retired_ += prologue.total;
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

  static std::uint64_t effectiveAddress(const Value *regs, const Inst &inst) {
    std::uint64_t addr =
        static_cast<std::uint64_t>(regs[inst.address.base].i);
    if (inst.address.index != kNoVReg)
      addr += static_cast<std::uint64_t>(regs[inst.address.index].i) *
              static_cast<std::uint64_t>(inst.address.scale);
    addr += static_cast<std::uint64_t>(
        static_cast<std::int64_t>(inst.address.disp));
    return addr;
  }

  /// Execute one instruction; returns false to stop (error or done).
  bool step() {
    Frame &frame = frames_.back();
    Value *regs = regs_.data() + frame.regBase;

    // Fast-forward check at header entry.
    const Plan::Block &block = plan_.blocks[frame.block];
    if (options_.fastForward && block.loop != kNone &&
        frame.inst == block.begin) {
      const Plan::Loop &loop = plan_.loops[block.loop];
      std::int64_t ind = regs[loop.induction].i;
      std::int64_t limit = regs[loop.limit].i;
      std::int64_t trips = 0;
      if (ind < limit)
        trips = (limit - ind + loop.step - 1) / loop.step;
      const Cost &headerTaken = plan_.costs[loop.headerTakenCost];
      const Cost &headerExit = plan_.costs[loop.headerExitCost];
      const Cost &body = plan_.costs[loop.bodyCost];
      charge(headerTaken, frame.counters, static_cast<std::uint64_t>(trips));
      charge(headerExit, frame.counters, 1);
      charge(body, frame.counters, static_cast<std::uint64_t>(trips));
      retired_ += headerTaken.total * trips + headerExit.total +
                  body.total * trips;
      regs[loop.induction].i = ind + trips * loop.step;
      jump(frame, loop.exit);
      return true;
    }

    const std::uint32_t end = plan_.blocks[frame.block + 1].begin;
    if (frame.inst >= end) {
      // Block without terminator (unreachable continuation): treat as
      // function end for void functions.
      return popFrame(Value{});
    }
    const Inst &inst = plan_.insts[frame.inst];
    const Cost &cost =
        plan_.costs[inst.op == MirOp::Branch && regs[inst.a].i != 0
                        ? inst.branch.takenCost
                        : inst.cost];
    charge(cost, frame.counters);
    retired_ += cost.total;

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
      std::uint64_t addr = effectiveAddress(regs, inst);
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
      std::uint64_t addr = effectiveAddress(regs, inst);
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
          static_cast<std::int64_t>(effectiveAddress(regs, inst));
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
      jump(frame, inst.branch.target);
      return true;
    case MirOp::Branch:
      jump(frame, regs[inst.a].i != 0 ? inst.branch.target
                                      : inst.branch.targetFalse);
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
    if (frame.inst >= end) {
      // fall off a block with no terminator (only possible for the
      // synthetic unreachable continuation blocks): stop the function.
      return popFrame(Value{});
    }
    return true;
  }

  void jump(Frame &frame, std::uint32_t block) {
    frame.block = block;
    frame.inst = plan_.blocks[block].begin;
  }

  bool doCall(Frame &frame, const Inst &inst) {
    ++frame.inst; // resume after the call
    Value *regs = regs_.data() + frame.regBase;
    const auto &call = inst.call;
    if (call.callee == Callee::Unknown) {
      error_ = "call to unknown function '" +
               plan_.unknownCallees[call.target] + "'";
      return false;
    }
    if (call.callee == Callee::Function) {
      const std::uint32_t callerBase = frame.regBase;
      Frame next;
      next.resultDst = inst.dst;
      enterFunction(next, call.target); // may move regs_
      const Plan::Function &callee = plan_.functions[call.target];
      const std::uint32_t count = std::min(call.argCount, callee.paramCount);
      for (std::uint32_t i = 0; i < count; ++i)
        regs_[next.regBase + plan_.registers[callee.paramBegin + i]] =
            regs_[callerBase + plan_.registers[call.argBegin + i]];
      frames_.push_back(std::move(next));
      return true;
    }

    const Cost &cost = plan_.costs[call.target];
    charge(cost, frame.counters);
    retired_ += cost.total;
    Value result{};
    switch (call.callee) {
    case Callee::Clock:
      result.f = static_cast<double>(retired_) * 1e-9;
      break;
    case Callee::Rand:
      rngState_ = rngState_ * 6364136223846793005ull + 1442695040888963407ull;
      result.f = static_cast<double>((rngState_ >> 11) & ((1ull << 53) - 1)) /
                 static_cast<double>(1ull << 53);
      break;
    case Callee::Print:
      printed_.push_back(regs[plan_.registers[call.argBegin]].f);
      break;
    case Callee::PrintInt:
      printed_.push_back(
          static_cast<double>(regs[plan_.registers[call.argBegin]].i));
      break;
    default:
      break;
    }
    if (inst.dst != kNoVReg)
      regs[inst.dst] = result;
    return true;
  }

  bool popFrame(const Value &result) {
    const Frame &finished = frames_.back();
    bump_ = finished.allocaMark;

    FunctionProfile &profile = profiles_[finished.fn];
    profile.calls += 1;
    profile.inclusive.add(finished.counters);
    regs_.resize(finished.regBase);

    if (frames_.size() == 1) {
      totalCounters_.add(finished.counters);
      returnValue_ = result;
      frames_.pop_back();
      return false; // done
    }
    Frame &parent = frames_[frames_.size() - 2];
    parent.counters.add(finished.counters);
    if (finished.resultDst != kNoVReg)
      regs_[parent.regBase + finished.resultDst] = result;
    frames_.pop_back();
    return true;
  }

  const Plan &plan_;
  SimOptions options_;
  std::vector<Frame> frames_;
  std::vector<Value> regs_; // every frame's registers, innermost last
  std::vector<std::uint8_t> memory_;
  std::uint64_t bump_ = 16;
  std::uint64_t retired_ = 0;
  std::uint64_t rngState_ = 0x9E3779B97F4A7C15ull;
  std::string error_;
  Counters totalCounters_;
  std::vector<FunctionProfile> profiles_; // by function index
  std::vector<double> printed_;
  Value returnValue_;
};

Image::Image(const mir::MirModule &module,
             const std::vector<codegen::CodegenResult> &codegen)
    : plan_(std::make_unique<const Plan>(module, codegen)) {}

Image::~Image() = default;

SimResult run(const Image &image, const std::string &function,
              const std::vector<Value> &args, const SimOptions &options) {
  Image::Machine machine(*image.plan_, options);
  return machine.run(function, args);
}

} // namespace mira::sim
