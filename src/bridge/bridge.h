// The source<->binary bridge (paper Sec. III-A2).
//
// Associates each source function with its disassembled AsmFunction and
// provides the line-number queries the metric generator uses: which
// machine instructions a statement's lines produced, which binary loops
// implement a source loop (one scalar loop, or a vectorized main loop
// plus scalar remainder), and which instructions at a line live outside
// any loop (prologue/epilogue/hoisted code).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "binast/binast.h"
#include "frontend/ast.h"
#include "isa/opcode.h"
#include "support/inline_vector.h"

namespace mira::bridge {

/// Machine loops implementing one source for statement, sorted by step
/// descending (vectorized main loop first, scalar remainder last).
struct LoopBinding {
  InlineVector<const binast::BinaryLoop *, 2> loops;

  bool isVectorized() const {
    return loops.size() >= 2 && loops.front()->step > 1;
  }
  const binast::BinaryLoop *mainLoop() const {
    return loops.empty() ? nullptr : loops.front();
  }
  const binast::BinaryLoop *remainderLoop() const {
    return loops.size() >= 2 ? loops.back() : nullptr;
  }
};

class FunctionBridge {
public:
  /// Indexes the function's instructions by line, block and innermost
  /// loop once, so every line query below reads only the instructions
  /// at that line.
  FunctionBridge(const frontend::FunctionDecl &source,
                 const binast::AsmFunction &binary);

  const frontend::FunctionDecl &source() const { return *source_; }
  const binast::AsmFunction &binary() const { return *binary_; }

  /// Binary loops whose header compare carries this source line (the
  /// for-statement line), i.e. the machine loops compiled from it.
  LoopBinding loopsAtLine(std::uint32_t line) const;

  /// All distinct lines with at least one machine instruction.
  std::vector<std::uint32_t> coveredLines() const;

  /// Opcode histogram of instructions at `line` whose innermost loop is
  /// `loop`, excluding its header block (nullptr loop = outside all
  /// loops).
  isa::OpcodeHistogram opcodesAtLine(std::uint32_t line,
                                     const binast::BinaryLoop *loop) const;

  /// Opcode histogram of a loop's header block.
  isa::OpcodeHistogram headerOpcodes(const binast::BinaryLoop &loop) const;

  /// Opcode histogram of the function prologue (line 0 instructions
  /// outside loops).
  isa::OpcodeHistogram prologueOpcodes() const;

private:
  struct IndexedInstr {
    std::uint32_t line;
    const binast::BinaryLoop *loop; // innermost enclosing loop, or nullptr
    std::uint32_t block;
    isa::Opcode opcode;
  };

  const frontend::FunctionDecl *source_;
  const binast::AsmFunction *binary_;
  // Every instruction, sorted by line (then address).
  std::vector<IndexedInstr> byLine_;
};

/// All function bridges of a translation unit against a binary AST.
class ProgramBridge {
public:
  ProgramBridge(const frontend::TranslationUnit &unit,
                const binast::BinaryAst &binary);

  /// nullptr when the function has no binary counterpart.
  const FunctionBridge *of(const std::string &qualifiedName) const;

private:
  std::map<std::string, FunctionBridge> bridges_;
};

} // namespace mira::bridge
