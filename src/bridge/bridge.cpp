#include "bridge/bridge.h"

#include <algorithm>

namespace mira::bridge {

using binast::AsmFunction;
using binast::BinaryLoop;

FunctionBridge::FunctionBridge(const frontend::FunctionDecl &source,
                               const binast::AsmFunction &binary)
    : source_(&source), binary_(&binary) {
  byLine_.reserve(binary.instructions.size());
  for (const binast::AsmBlock &block : binary.blocks) {
    const int li = binary.innermostLoopOf(block.id);
    const BinaryLoop *loop =
        li < 0 ? nullptr : &binary.loops[static_cast<std::size_t>(li)];
    for (std::uint32_t idx : block.instrIndices)
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

std::map<isa::Opcode, std::size_t>
FunctionBridge::opcodesAtLine(std::uint32_t line,
                              const BinaryLoop *loop) const {
  std::map<isa::Opcode, std::size_t> out;
  auto it = std::lower_bound(byLine_.begin(), byLine_.end(), line,
                             [](const IndexedInstr &instr, std::uint32_t l) {
                               return instr.line < l;
                             });
  for (; it != byLine_.end() && it->line == line; ++it) {
    // Exclude the header block: counted separately as (trips+1).
    if (it->loop == loop && !(loop && it->block == loop->headerBlock))
      ++out[it->opcode];
  }
  return out;
}

std::map<isa::Opcode, std::size_t>
FunctionBridge::headerOpcodes(const BinaryLoop &loop) const {
  std::map<isa::Opcode, std::size_t> out;
  for (std::uint32_t idx : binary_->blocks[loop.headerBlock].instrIndices)
    ++out[binary_->instructions[idx].inst.opcode];
  return out;
}

std::map<isa::Opcode, std::size_t> FunctionBridge::prologueOpcodes() const {
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
