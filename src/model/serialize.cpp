#include "model/serialize.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "isa/opcode.h"
#include "support/binary_io.h"
#include "symbolic/expr.h"
#include "symbolic/interner.h"

namespace mira::model {

namespace {

using symbolic::Expr;
using symbolic::ExprKind;
using symbolic::ExprNode;
using symbolic::ExprNodeRef;

using bio::putI64;
using bio::putString;
using bio::putU32;
using bio::putU8;

// Corrupt data must fail parsing, not exhaust memory or the stack.
constexpr std::size_t kMaxExprDepth = 512;

void putExprNode(std::string &out, const ExprNode &node) {
  putU8(out, static_cast<std::uint8_t>(node.kind));
  switch (node.kind) {
  case ExprKind::IntConst:
    putI64(out, node.value);
    return;
  case ExprKind::Param:
    putString(out, node.name);
    return;
  case ExprKind::Sum:
    putString(out, node.name);
    break; // operands follow (lo, hi, body)
  default:
    break;
  }
  putU32(out, static_cast<std::uint32_t>(node.operands.size()));
  for (const ExprNodeRef &operand : node.operands)
    putExprNode(out, *operand);
}

void putExpr(std::string &out, const Expr &expr) {
  putExprNode(out, expr.node());
}

// ------------------------------------------------------------- readers

// Smallest encoding of one element of each counted list. A count is
// trusted only up to the remaining bytes divided by these, so a hostile
// count can size a reserve no larger than a constant times the buffer.
constexpr std::size_t kMinString = 4; // u32 length
constexpr std::size_t kMinExpr = 5;   // kind tag + u32 length or count
constexpr std::size_t kMinOpcodeEntry = 4 + 8; // u32 opcode + i64 count
// Multiplier, comment, opcode count.
constexpr std::size_t kMinCountStep = kMinExpr + kMinString + 4;
// Multiplier, callee, line, binding count.
constexpr std::size_t kMinCallStep = kMinExpr + kMinString + 4 + 4;
constexpr std::size_t kMinBinding = kMinString + kMinExpr;
// Two names, parameter count, exact flag, note/count/call step counts.
constexpr std::size_t kMinFunction = 2 * kMinString + 4 + 1 + 3 * 4;

// Expression roots (count and call multipliers, argument bindings) the
// reader remembers. Most roots of a payload repeat an earlier one byte for
// byte: every statement of a loop body carries the loop's trip count.
constexpr std::size_t kRootWindow = 16;

struct Reader : bio::Reader {
  symbolic::ExprInterner &interner;
  // Operand stack shared by every expression of the payload: a node's
  // children sit on top of it while the node is looked up.
  std::vector<ExprNodeRef> operands;

  // The byte range and node of each of the kRootWindow most recently
  // decoded distinct roots, a ring indexed by decode order.
  struct Root {
    std::size_t begin = 0;
    std::size_t size = 0;
    ExprNodeRef node;
  };
  std::array<Root, kRootWindow> roots;
  std::size_t rootCount = 0; // roots decoded so far

  Reader(const std::string &bytes, std::size_t offset,
         symbolic::ExprInterner &interner)
      : bio::Reader{bytes, offset}, interner(interner) {
    operands.reserve(32);
  }

  /// A u32 element count, no larger than the number of elements of at
  /// least `minBytes` each that the remaining bytes can hold.
  bool count(std::uint32_t &n, std::size_t minBytes) {
    return u32(n) && n <= remaining() / minBytes;
  }

  bool exprNode(std::size_t depth);

  /// One expression root. When the bytes at the cursor repeat a
  /// remembered root, its node is reused and the bytes are skipped: the
  /// encoding is self-delimiting and every check (the depth cap counts
  /// from the root, element counts are bounded by bytes the range itself
  /// holds) passes again wherever the whole range is present, so equal
  /// bytes decode to the equal node. Anything else decodes normally.
  /// Returned rather than assigned, so callers build each step from it
  /// and never construct (and intern) a placeholder Expr().
  std::optional<Expr> expr() {
    const std::size_t window = std::min(rootCount, kRootWindow);
    for (std::size_t i = 1; i <= window; ++i) {
      const Root &root = roots[(rootCount - i) % kRootWindow];
      if (root.size <= remaining() &&
          std::memcmp(bytes.data() + offset, bytes.data() + root.begin,
                      root.size) == 0) {
        offset += root.size;
        return Expr::fromNode(root.node);
      }
    }
    const std::size_t begin = offset;
    if (!exprNode(0))
      return std::nullopt;
    Root &root = roots[rootCount++ % kRootWindow];
    root.begin = begin;
    root.size = offset - begin;
    root.node = std::move(operands.back());
    operands.pop_back();
    return Expr::fromNode(root.node);
  }
};

/// Reads one node, its children first, and pushes its canonical node on
/// the operand stack: each node is looked up in the payload's interner as
/// soon as its fields and children are read, so no raw tree is built.
bool Reader::exprNode(std::size_t depth) {
  if (depth > kMaxExprDepth)
    return false;
  std::uint8_t kindTag = 0;
  if (!u8(kindTag) || kindTag > static_cast<std::uint8_t>(ExprKind::Sum))
    return false;
  const auto kind = static_cast<ExprKind>(kindTag);
  std::int64_t value = 0;
  std::string_view name;
  std::uint32_t arity = 0;
  switch (kind) {
  case ExprKind::IntConst:
    if (!i64(value))
      return false;
    break;
  case ExprKind::Param:
    if (!view(name))
      return false;
    break;
  case ExprKind::Sum:
    if (!view(name) || !u32(arity) || arity != 3)
      return false;
    break;
  default:
    if (!count(arity, kMinExpr))
      return false;
    break;
  }
  const std::size_t base = operands.size();
  for (std::uint32_t i = 0; i < arity; ++i)
    if (!exprNode(depth + 1))
      return false;
  ExprNodeRef node = interner.internUnlocked(kind, value, name,
                                             operands.data() + base, arity);
  operands.resize(base);
  operands.push_back(std::move(node));
  return true;
}

} // namespace

void serializeModel(const PerformanceModel &model, std::string &out) {
  putString(out, model.sourceFile);
  putU32(out, static_cast<std::uint32_t>(model.functions.size()));
  for (const FunctionModel &fn : model.functions) {
    putString(out, fn.sourceName);
    putString(out, fn.modelName);
    putU32(out, static_cast<std::uint32_t>(fn.paramNames.size()));
    for (const std::string &name : fn.paramNames)
      putString(out, name);
    putU8(out, fn.exact ? 1 : 0);
    putU32(out, static_cast<std::uint32_t>(fn.notes.size()));
    for (const std::string &note : fn.notes)
      putString(out, note);
    putU32(out, static_cast<std::uint32_t>(fn.counts.size()));
    for (const CountStep &step : fn.counts) {
      putExpr(out, step.multiplier);
      putString(out, step.comment);
      putU32(out, static_cast<std::uint32_t>(step.opcodes.size()));
      for (const auto &[op, n] : step.opcodes) {
        putU32(out, static_cast<std::uint32_t>(op));
        putI64(out, n);
      }
    }
    putU32(out, static_cast<std::uint32_t>(fn.calls.size()));
    for (const CallStep &step : fn.calls) {
      putExpr(out, step.multiplier);
      putString(out, step.callee);
      putU32(out, step.line);
      putU32(out, static_cast<std::uint32_t>(step.argBindings.size()));
      for (const auto &[name, expr] : step.argBindings) {
        putString(out, name);
        putExpr(out, expr);
      }
    }
  }
}

bool deserializeModel(const std::string &bytes, std::size_t &offset,
                      PerformanceModel &out) {
  // One expression arena per payload: each node is interned as it is
  // read, so expressions repeated across a model's functions share one
  // node, and the table dies with this call instead of accumulating in
  // the calling thread's default interner. No other thread can reach
  // this local arena, so the reader interns without its mutex. The scope
  // makes the reader's Expr::fromNode calls O(1). Interning never
  // reorders or rewrites, so reserializing the result reproduces the
  // input bytes exactly (pinned by cache_test and property_test).
  symbolic::ExprInterner interner;
  symbolic::ExprInterner::Scope scope(interner);
  Reader r(bytes, offset, interner);
  out = PerformanceModel();
  if (!r.str(out.sourceFile))
    return false;
  std::uint32_t functionCount = 0;
  if (!r.count(functionCount, kMinFunction))
    return false;
  out.functions.reserve(functionCount);
  for (std::uint32_t f = 0; f < functionCount; ++f) {
    FunctionModel fn;
    if (!r.str(fn.sourceName) || !r.str(fn.modelName))
      return false;
    std::uint32_t paramCount = 0;
    if (!r.count(paramCount, kMinString))
      return false;
    fn.paramNames.reserve(paramCount);
    for (std::uint32_t i = 0; i < paramCount; ++i) {
      std::string name;
      if (!r.str(name))
        return false;
      fn.paramNames.push_back(std::move(name));
    }
    std::uint8_t exact = 0;
    if (!r.u8(exact) || exact > 1)
      return false;
    fn.exact = exact != 0;
    std::uint32_t noteCount = 0;
    if (!r.count(noteCount, kMinString))
      return false;
    fn.notes.reserve(noteCount);
    for (std::uint32_t i = 0; i < noteCount; ++i) {
      std::string note;
      if (!r.str(note))
        return false;
      fn.notes.push_back(std::move(note));
    }
    std::uint32_t countSteps = 0;
    if (!r.count(countSteps, kMinCountStep))
      return false;
    fn.counts.reserve(countSteps);
    for (std::uint32_t i = 0; i < countSteps; ++i) {
      std::optional<Expr> multiplier = r.expr();
      if (!multiplier)
        return false;
      CountStep step{std::move(*multiplier), {}, {}};
      if (!r.str(step.comment))
        return false;
      std::uint32_t opcodeCount = 0;
      if (!r.count(opcodeCount, kMinOpcodeEntry))
        return false;
      step.opcodes.reserve(opcodeCount);
      for (std::uint32_t o = 0; o < opcodeCount; ++o) {
        std::uint32_t opcode = 0;
        std::int64_t n = 0;
        if (!r.u32(opcode) || opcode >= isa::kNumOpcodes || !r.i64(n))
          return false;
        const auto op = static_cast<isa::Opcode>(opcode);
        // Writers emit strictly increasing opcodes (isa::OpcodeHistogram);
        // a repeated or descending opcode is corrupt, not mergeable.
        if (!step.opcodes.empty() && op <= step.opcodes.back().first)
          return false;
        step.opcodes.emplace_back(op, n);
      }
      fn.counts.push_back(std::move(step));
    }
    std::uint32_t callSteps = 0;
    if (!r.count(callSteps, kMinCallStep))
      return false;
    fn.calls.reserve(callSteps);
    for (std::uint32_t i = 0; i < callSteps; ++i) {
      std::optional<Expr> multiplier = r.expr();
      if (!multiplier)
        return false;
      CallStep step{std::move(*multiplier), {}, {}, 0};
      if (!r.str(step.callee) || !r.u32(step.line))
        return false;
      std::uint32_t bindingCount = 0;
      if (!r.count(bindingCount, kMinBinding))
        return false;
      for (std::uint32_t b = 0; b < bindingCount; ++b) {
        std::string name;
        if (!r.str(name))
          return false;
        std::optional<Expr> expr = r.expr();
        if (!expr)
          return false;
        // Writers emit bindings in map order (strictly increasing
        // names); a repeated or descending name is corrupt, and merging
        // or reordering it would re-encode to different bytes.
        if (!step.argBindings.empty() &&
            name <= step.argBindings.rbegin()->first)
          return false;
        step.argBindings.emplace_hint(step.argBindings.end(),
                                      std::move(name), std::move(*expr));
      }
      fn.calls.push_back(std::move(step));
    }
    out.functions.push_back(std::move(fn));
  }
  offset = r.offset;
  return true;
}

} // namespace mira::model
