#include "bridge/bridge.h"

#include <algorithm>

namespace mira::bridge {

using binast::AsmFunction;
using binast::BinaryLoop;

namespace {

/// Counts one more `op`. Entries merge as they are added, so a histogram
/// holds one entry per distinct opcode (few, so it stays inline) and
/// needs only sorting (normalizeHistogram) when complete.
void tally(isa::OpcodeHistogram &histogram, isa::Opcode op) {
  for (auto &[have, n] : histogram)
    if (have == op) {
      ++n;
      return;
    }
  histogram.emplace_back(op, 1);
}

} // namespace

FunctionBridge::FunctionBridge(const frontend::FunctionDecl &source,
                               const binast::AsmFunction &binary)
    : source_(&source), binary_(&binary) {
  byLine_.reserve(binary.instructions.size());
  for (const binast::AsmBlock &block : binary.blocks) {
    const int li = binary.innermostLoopOf(block.id);
    const BinaryLoop *loop =
        li < 0 ? nullptr : &binary.loops[static_cast<std::size_t>(li)];
    for (std::uint32_t idx = block.firstInstr; idx < block.endInstr; ++idx)
      byLine_.push_back({binary.instructions[idx].line, loop, block.id,
                         binary.instructions[idx].inst.opcode});
  }
  std::sort(byLine_.begin(), byLine_.end(),
            [](const IndexedInstr &a, const IndexedInstr &b) {
              return a.line < b.line;
            });
}

LoopBinding FunctionBridge::loopsAtLine(std::uint32_t line) const {
  LoopBinding binding;
  for (const BinaryLoop &loop : binary_->loops)
    if (loop.sourceLine == line)
      binding.loops.push_back(&loop);
  std::sort(binding.loops.begin(), binding.loops.end(),
            [](const BinaryLoop *a, const BinaryLoop *b) {
              return a->step > b->step;
            });
  return binding;
}

std::vector<std::uint32_t> FunctionBridge::coveredLines() const {
  std::vector<std::uint32_t> lines;
  for (const IndexedInstr &instr : byLine_)
    if (lines.empty() || lines.back() != instr.line)
      lines.push_back(instr.line);
  return lines;
}

isa::OpcodeHistogram
FunctionBridge::opcodesAtLine(std::uint32_t line,
                              const BinaryLoop *loop) const {
  const auto [first, last] = std::equal_range(
      byLine_.begin(), byLine_.end(), IndexedInstr{line, nullptr, 0, {}},
      [](const IndexedInstr &a, const IndexedInstr &b) {
        return a.line < b.line;
      });
  // Exclude the header block: counted separately as (trips+1).
  auto counted = [loop](const IndexedInstr &instr) {
    return instr.loop == loop && !(loop && instr.block == loop->headerBlock);
  };
  isa::OpcodeHistogram out;
  for (auto it = first; it != last; ++it)
    if (counted(*it))
      tally(out, it->opcode);
  isa::normalizeHistogram(out);
  return out;
}

isa::OpcodeHistogram
FunctionBridge::headerOpcodes(const BinaryLoop &loop) const {
  const binast::AsmBlock &header = binary_->blocks[loop.headerBlock];
  isa::OpcodeHistogram out;
  for (std::uint32_t idx = header.firstInstr; idx < header.endInstr; ++idx)
    tally(out, binary_->instructions[idx].inst.opcode);
  isa::normalizeHistogram(out);
  return out;
}

isa::OpcodeHistogram FunctionBridge::prologueOpcodes() const {
  return opcodesAtLine(0, nullptr);
}

ProgramBridge::ProgramBridge(const frontend::TranslationUnit &unit,
                             const binast::BinaryAst &binary) {
  for (const frontend::FunctionDecl *fn : unit.allFunctions()) {
    const AsmFunction *bin = binary.find(fn->qualifiedName());
    if (bin)
      bridges_.emplace(fn->qualifiedName(), FunctionBridge(*fn, *bin));
  }
}

const FunctionBridge *ProgramBridge::of(
    const std::string &qualifiedName) const {
  auto it = bridges_.find(qualifiedName);
  return it == bridges_.end() ? nullptr : &it->second;
}

} // namespace mira::bridge
