#include "binast/binast.h"

#include <algorithm>

#include "isa/encoding.h"

namespace mira::binast {

using isa::Instruction;
using isa::Opcode;
using isa::Operand;
using isa::OperandKind;

bool BinaryLoop::contains(std::uint32_t blockId) const {
  return std::binary_search(blocks.begin(), blocks.end(), blockId);
}

std::map<std::uint32_t, std::size_t> AsmFunction::lineCounts() const {
  std::map<std::uint32_t, std::size_t> out;
  for (const AsmInstruction &ai : instructions)
    ++out[ai.line];
  return out;
}

int AsmFunction::innermostLoopOf(std::uint32_t blockId) const {
  int best = -1;
  std::size_t bestSize = 0;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    if (!loops[i].contains(blockId))
      continue;
    if (best < 0 || loops[i].blocks.size() < bestSize) {
      best = static_cast<int>(i);
      bestSize = loops[i].blocks.size();
    }
  }
  return best;
}

const AsmFunction *BinaryAst::find(const std::string &name) const {
  for (const AsmFunction &fn : functions)
    if (fn.name == name)
      return &fn;
  return nullptr;
}

namespace {

/// Forward cursor over an object's line table. For non-decreasing query
/// addresses it answers exactly what MiraObject::lineForAddress does (the
/// line of the last entry in the longest table prefix at or before the
/// address) in one pass over the table, instead of one scan per
/// instruction. A query below the previous one restarts the pass.
class LineCursor {
public:
  explicit LineCursor(const std::vector<objfile::LineEntry> &table)
      : table_(table) {}

  std::uint32_t lineAt(std::uint64_t address) {
    if (address < last_) {
      next_ = 0;
      line_ = 0;
    }
    last_ = address;
    while (next_ < table_.size() && table_[next_].address <= address)
      line_ = table_[next_++].line;
    return line_;
  }

private:
  const std::vector<objfile::LineEntry> &table_;
  std::size_t next_ = 0;
  std::uint32_t line_ = 0;
  std::uint64_t last_ = 0;
};

/// Jump target of a control transfer with an immediate operand.
std::optional<std::uint64_t> jumpTarget(const Instruction &inst) {
  if (inst.operands.empty() || inst.operands[0].kind != OperandKind::Imm)
    return std::nullopt;
  return static_cast<std::uint64_t>(inst.operands[0].imm);
}

/// Build basic blocks from a decoded instruction stream. Leaders: the
/// first instruction, jump targets, instructions following control
/// transfers. Block start addresses ascend with block ids, so the block
/// list itself is the address -> block lookup.
void buildBlocks(AsmFunction &fn) {
  if (fn.instructions.empty())
    return;
  const auto instructionCount =
      static_cast<std::uint32_t>(fn.instructions.size());
  // Instruction addresses ascend, so an address maps to an index by
  // binary search; an address between instructions starts no block.
  auto indexAt = [&fn](std::uint64_t address) -> std::optional<std::uint32_t> {
    auto it = std::lower_bound(fn.instructions.begin(), fn.instructions.end(),
                               address,
                               [](const AsmInstruction &ai, std::uint64_t a) {
                                 return ai.inst.address < a;
                               });
    if (it == fn.instructions.end() || it->inst.address != address)
      return std::nullopt;
    return static_cast<std::uint32_t>(it - fn.instructions.begin());
  };
  std::vector<std::uint8_t> leader(instructionCount, 0);
  leader[0] = 1;
  for (std::uint32_t i = 0; i < instructionCount; ++i) {
    const Instruction &inst = fn.instructions[i].inst;
    if (isa::isConditionalJump(inst.opcode) ||
        isa::isUnconditionalJump(inst.opcode))
      if (auto target = jumpTarget(inst))
        if (auto at = indexAt(*target))
          leader[*at] = 1;
    if (isa::isControlTransfer(inst.opcode) && !isa::isCall(inst.opcode))
      if (auto at = indexAt(inst.address + inst.encodedSize()))
        leader[*at] = 1;
  }

  fn.blocks.resize(static_cast<std::size_t>(
      std::count(leader.begin(), leader.end(), std::uint8_t{1})));
  std::uint32_t b = 0;
  for (std::uint32_t i = 0; i < instructionCount; ++i) {
    if (!leader[i])
      continue;
    AsmBlock &block = fn.blocks[b];
    block.id = b;
    block.startAddress = fn.instructions[i].inst.address;
    block.firstInstr = i;
    if (b > 0)
      fn.blocks[b - 1].endInstr = i;
    ++b;
  }
  fn.blocks.back().endInstr = instructionCount;

  auto blockAt = [&fn](std::uint64_t address) -> const AsmBlock * {
    auto it = std::lower_bound(fn.blocks.begin(), fn.blocks.end(), address,
                               [](const AsmBlock &b, std::uint64_t a) {
                                 return b.startAddress < a;
                               });
    return it != fn.blocks.end() && it->startAddress == address ? &*it
                                                                : nullptr;
  };
  for (AsmBlock &b : fn.blocks) {
    const Instruction &last = fn.instructions[b.endInstr - 1].inst;
    auto addSucc = [&](std::optional<std::uint64_t> address) {
      if (!address)
        return;
      if (const AsmBlock *succ = blockAt(*address))
        b.successors.push_back(succ->id);
    };
    const std::uint64_t fallthrough = last.address + last.encodedSize();
    if (isa::isUnconditionalJump(last.opcode)) {
      addSucc(jumpTarget(last));
    } else if (isa::isConditionalJump(last.opcode)) {
      addSucc(jumpTarget(last));
      addSucc(fallthrough);
    } else if (!isa::isReturn(last.opcode)) {
      addSucc(fallthrough);
    }
  }
}

/// Predecessor lists of every block, flattened: the predecessors of
/// block b are list[start[b] .. start[b + 1]), in block order.
struct Predecessors {
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> list;

  explicit Predecessors(const AsmFunction &fn)
      : start(fn.blocks.size() + 1, 0) {
    for (const AsmBlock &b : fn.blocks)
      for (std::uint32_t s : b.successors)
        ++start[s + 1];
    for (std::size_t b = 0; b < fn.blocks.size(); ++b)
      start[b + 1] += start[b];
    list.resize(start.back());
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    for (const AsmBlock &b : fn.blocks)
      for (std::uint32_t s : b.successors)
        list[fill[s]++] = b.id;
  }

  const std::uint32_t *begin(std::uint32_t b) const {
    return list.data() + start[b];
  }
  const std::uint32_t *end(std::uint32_t b) const {
    return list.data() + start[b + 1];
  }
};

/// Dominator sets as one bit matrix: row b holds the blocks dominating b.
class Dominators {
public:
  /// Iterative fixed point (entry = block 0), swept in block order: a
  /// block's set is itself plus the intersection of its predecessors'
  /// sets, and a block with no predecessors is dominated only by itself.
  Dominators(const AsmFunction &fn, const Predecessors &preds)
      : words_((fn.blocks.size() + 63) / 64),
        bits_(fn.blocks.size() * words_, ~std::uint64_t{0}) {
    const auto n = static_cast<std::uint32_t>(fn.blocks.size());
    if (n == 0)
      return;
    // Clear the padding bits past the last block in every row.
    if (n % 64)
      for (std::uint32_t b = 0; b < n; ++b)
        row(b)[words_ - 1] = (std::uint64_t{1} << (n % 64)) - 1;
    std::fill(row(0), row(0) + words_, 0);
    row(0)[0] = 1;
    std::vector<std::uint64_t> next(words_);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t b = 1; b < n; ++b) {
        if (preds.begin(b) == preds.end(b)) {
          std::fill(next.begin(), next.end(), 0);
        } else {
          std::copy(row(*preds.begin(b)), row(*preds.begin(b)) + words_,
                    next.begin());
          for (const std::uint32_t *p = preds.begin(b) + 1; p != preds.end(b);
               ++p)
            for (std::size_t w = 0; w < words_; ++w)
              next[w] &= row(*p)[w];
        }
        next[b / 64] |= std::uint64_t{1} << (b % 64);
        if (!std::equal(next.begin(), next.end(), row(b))) {
          std::copy(next.begin(), next.end(), row(b));
          changed = true;
        }
      }
    }
  }

  /// True when block `d` dominates block `b`.
  bool dominates(std::uint32_t d, std::uint32_t b) const {
    return (bits_[b * words_ + d / 64] >> (d % 64)) & 1;
  }

private:
  std::uint64_t *row(std::uint32_t b) { return bits_.data() + b * words_; }

  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// The immediate that `operand` holds when `from` executes, if the latch
/// loads it there: the nearest earlier MOV writing the operand, followed
/// back through register and stack-slot copies until one moves an
/// immediate. A step constant the allocator spilled travels
/// `mov r10, imm; mov [slot], r10; mov r11, [slot]; add reg, r11`.
std::optional<std::int64_t> immediateIn(const AsmFunction &fn,
                                        const AsmBlock &latch,
                                        std::uint32_t from, Operand operand) {
  for (std::uint32_t i = from + 1; i-- > latch.firstInstr;) {
    const Instruction &inst = fn.instructions[i].inst;
    if (inst.opcode != Opcode::MOV || inst.operands.size() != 2 ||
        !(inst.operands[0] == operand))
      continue;
    const Operand &source = inst.operands[1];
    if (source.kind == OperandKind::Imm)
      return source.imm;
    if (source.kind != OperandKind::Reg && source.kind != OperandKind::Mem)
      return std::nullopt;
    operand = source;
  }
  return std::nullopt;
}

/// Induction step: the latch's `add reg, imm`, or `add reg, reg` whose
/// source holds an immediate, closest to the jump.
void findInductionStep(const AsmFunction &fn, BinaryLoop &loop) {
  const AsmBlock &latch = fn.blocks[loop.latchBlock];
  for (std::uint32_t i = latch.endInstr; i-- > latch.firstInstr;) {
    const Instruction &inst = fn.instructions[i].inst;
    if (inst.opcode != Opcode::ADD || inst.operands.size() != 2 ||
        inst.operands[0].kind != OperandKind::Reg)
      continue;
    if (inst.operands[1].kind == OperandKind::Reg) {
      if (auto step = immediateIn(fn, latch, i, inst.operands[1])) {
        loop.step = *step;
        loop.inductionReg = inst.operands[0].reg;
        if (loop.step)
          break;
      }
    } else if (inst.operands[1].kind == OperandKind::Imm) {
      loop.step = inst.operands[1].imm;
      loop.inductionReg = inst.operands[0].reg;
      break;
    }
  }
}

/// Natural-loop discovery: a back edge is u -> h where h dominates u;
/// the loop body is collected by walking predecessors from the latch
/// until the header.
void findLoops(AsmFunction &fn) {
  const Predecessors preds(fn);
  const Dominators dom(fn, preds);
  std::vector<bool> inLoop(fn.blocks.size());
  std::vector<std::uint32_t> work;

  for (const AsmBlock &b : fn.blocks) {
    for (std::uint32_t succ : b.successors) {
      if (!dom.dominates(succ, b.id))
        continue; // not a back edge (header must dominate the latch)
      // back edge b -> succ
      BinaryLoop loop;
      loop.headerBlock = succ;
      loop.latchBlock = b.id;
      std::fill(inLoop.begin(), inLoop.end(), false);
      inLoop[succ] = true;
      std::size_t members = 1;
      work.assign(1, b.id);
      while (!work.empty()) {
        std::uint32_t n = work.back();
        work.pop_back();
        if (inLoop[n])
          continue;
        inLoop[n] = true;
        ++members;
        work.insert(work.end(), preds.begin(n), preds.end(n));
      }
      loop.blocks.reserve(members);
      for (std::uint32_t blk = 0; blk < fn.blocks.size(); ++blk)
        if (inLoop[blk])
          loop.blocks.push_back(blk);

      findInductionStep(fn, loop);

      // Instruction accounting and source line.
      const AsmBlock &header = fn.blocks[loop.headerBlock];
      loop.headerInstrCount = header.instrCount();
      for (std::uint32_t idx = header.firstInstr; idx < header.endInstr; ++idx)
        if (!loop.sourceLine && fn.instructions[idx].line)
          loop.sourceLine = fn.instructions[idx].line;
      for (std::uint32_t blk : loop.blocks)
        if (blk != loop.headerBlock)
          loop.bodyInstrCount += fn.blocks[blk].instrCount();
      fn.loops.push_back(std::move(loop));
    }
  }
}

} // namespace

std::optional<BinaryAst> buildBinaryAst(const objfile::MiraObject &object,
                                        DiagnosticEngine &diags) {
  BinaryAst ast;
  ast.functions.reserve(object.symbols.size());
  LineCursor lines(object.lineTable);
  for (const objfile::FunctionSymbol &sym : object.symbols) {
    AsmFunction fn;
    fn.name = sym.name;
    fn.id = sym.id;
    fn.objectOffset = sym.offset;

    // Decode the function's bytes where they lie; addresses are offsets
    // from the function start (MiraObject::parse checked the range).
    const std::uint8_t *bytes = object.text.data() + sym.offset;
    fn.instructions.reserve(isa::countInstructions(bytes, sym.size));
    std::size_t offset = 0;
    while (offset < sym.size) {
      AsmInstruction &ai = fn.instructions.emplace_back();
      ai.inst.address = offset;
      ai.line = lines.lineAt(sym.offset + offset);
      if (!isa::decodeInstruction(bytes, sym.size, offset, ai.inst, diags)) {
        diags.error({}, "failed to disassemble function '" + sym.name + "'");
        return std::nullopt;
      }
    }
    buildBlocks(fn);
    findLoops(fn);
    ast.functions.push_back(std::move(fn));
  }
  return ast;
}

} // namespace mira::binast
