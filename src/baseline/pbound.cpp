#include "baseline/pbound.h"

#include "polyhedral/counting.h"
#include "sema/loop_analysis.h"
#include "support/string_utils.h"

namespace mira::baseline {

using frontend::AssignOp;
using frontend::BinaryOp;
using frontend::ExprKind;
using frontend::Expression;
using frontend::FunctionDecl;
using frontend::ScalarType;
using frontend::Statement;
using frontend::StmtKind;
using model::CallStep;
using model::CountStep;
using model::FunctionModel;
using polyhedral::IterationDomain;
using polyhedral::LoopLevel;
using symbolic::Expr;

namespace {

/// Source-level operation tallies of one statement.
struct OpTally {
  std::int64_t fpAdd = 0, fpMul = 0, fpDiv = 0, fpOther = 0;
  std::int64_t loads = 0, stores = 0;
  std::int64_t intOps = 0, comparisons = 0;

  bool empty() const {
    return fpAdd + fpMul + fpDiv + fpOther + loads + stores + intOps +
               comparisons ==
           0;
  }

  isa::OpcodeHistogram toOpcodes() const {
    isa::OpcodeHistogram out;
    auto put = [&](isa::Opcode op, std::int64_t n) {
      if (n)
        out.emplace_back(op, n);
    };
    // One source FP op = one scalar SSE2 arithmetic instruction: the
    // source-only assumption that breaks on vectorized binaries.
    put(isa::Opcode::ADDSD, fpAdd);
    put(isa::Opcode::MULSD, fpMul);
    put(isa::Opcode::DIVSD, fpDiv);
    put(isa::Opcode::SQRTSD, fpOther);
    put(isa::Opcode::MOVSD_RM, loads);
    put(isa::Opcode::MOVSD_MR, stores);
    put(isa::Opcode::ADD, intOps);
    put(isa::Opcode::CMP, comparisons);
    isa::normalizeHistogram(out);
    return out;
  }
};

void tallyExpr(const Expression &expr, OpTally &tally, bool asLValue) {
  switch (expr.kind) {
  case ExprKind::IntLiteral:
  case ExprKind::FloatLiteral:
  case ExprKind::BoolLiteral:
  case ExprKind::VarRef:
    break;
  case ExprKind::Binary: {
    bool fp = expr.type.isFloatingPoint();
    switch (expr.binaryOp) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
      (fp ? tally.fpAdd : tally.intOps) += 1;
      break;
    case BinaryOp::Mul:
      (fp ? tally.fpMul : tally.intOps) += 1;
      break;
    case BinaryOp::Div:
      (fp ? tally.fpDiv : tally.intOps) += 1;
      break;
    case BinaryOp::Mod:
      tally.intOps += 1;
      break;
    case BinaryOp::LAnd:
    case BinaryOp::LOr:
      tally.intOps += 1;
      break;
    default:
      tally.comparisons += 1;
      break;
    }
    tallyExpr(*expr.children[0], tally, false);
    tallyExpr(*expr.children[1], tally, false);
    break;
  }
  case ExprKind::Unary:
    if (expr.unaryOp == frontend::UnaryOp::Neg &&
        expr.type.isFloatingPoint())
      tally.fpOther += 1;
    else
      tally.intOps += 1;
    tallyExpr(*expr.children[0], tally,
              expr.unaryOp != frontend::UnaryOp::Neg &&
                  expr.unaryOp != frontend::UnaryOp::Not);
    break;
  case ExprKind::Assign: {
    if (expr.assignOp != AssignOp::Assign) {
      bool fp = expr.type.isFloatingPoint();
      if (expr.assignOp == AssignOp::MulAssign)
        (fp ? tally.fpMul : tally.intOps) += 1;
      else if (expr.assignOp == AssignOp::DivAssign)
        (fp ? tally.fpDiv : tally.intOps) += 1;
      else
        (fp ? tally.fpAdd : tally.intOps) += 1;
      // compound assignment also reads the target
      tallyExpr(*expr.children[0], tally, false);
    }
    tallyExpr(*expr.children[0], tally, true);
    tallyExpr(*expr.children[1], tally, false);
    break;
  }
  case ExprKind::Call: {
    if (expr.isBuiltin) {
      if (expr.name == "sqrt")
        tally.fpOther += 1;
      else if (expr.name == "fmin" || expr.name == "fmax" ||
               expr.name == "fabs")
        tally.fpOther += 1;
      else
        tally.intOps += 1;
    }
    for (const auto &arg : expr.children)
      tallyExpr(*arg, tally, false);
    if (expr.receiver)
      tallyExpr(*expr.receiver, tally, false);
    break;
  }
  case ExprKind::Index:
    (asLValue ? tally.stores : tally.loads) += 1;
    tally.intOps += 1; // index arithmetic
    tallyExpr(*expr.children[0], tally, false);
    tallyExpr(*expr.children[1], tally, false);
    break;
  case ExprKind::Member:
    (asLValue ? tally.stores : tally.loads) += 1;
    tallyExpr(*expr.children[0], tally, false);
    break;
  }
}

void collectCalls(const Expression &expr, const Expr &multiplier,
                  FunctionModel &model) {
  if (const FunctionDecl *callee = expr.callee) {
    CallStep step;
    step.multiplier = multiplier;
    step.callee = expr.resolvedCallee;
    step.line = expr.range.begin.line;
    for (std::size_t i = 0;
         i < callee->params.size() && i < expr.children.size(); ++i) {
      if (!callee->params[i].type.isInteger())
        continue;
      if (auto affine = sema::exprToAffine(*expr.children[i]))
        step.argBindings[callee->params[i].name] = affine->toExpr();
      else
        step.argBindings[callee->params[i].name] = Expr::param(
            callee->params[i].name + "_" + std::to_string(step.line));
    }
    model.calls.push_back(std::move(step));
  }
  for (const auto &child : expr.children)
    collectCalls(*child, multiplier, model);
  if (expr.receiver)
    collectCalls(*expr.receiver, multiplier, model);
}

struct Walker {
  FunctionModel &model;

  void walk(const Statement &stmt, const IterationDomain &domain,
            const Expr &extra) {
    Expr count = countOf(domain, extra);
    switch (stmt.kind) {
    case StmtKind::Compound:
      for (const auto &s : stmt.body)
        walk(*s, domain, extra);
      break;
    case StmtKind::Decl: {
      OpTally tally;
      if (stmt.declInit) {
        tallyExpr(*stmt.declInit, tally, false);
        collectCalls(*stmt.declInit, count, model);
      }
      emit(tally, count, stmt.range.begin.line);
      break;
    }
    case StmtKind::ExprStmt:
    case StmtKind::Return: {
      OpTally tally;
      if (stmt.expr) {
        tallyExpr(*stmt.expr, tally, false);
        collectCalls(*stmt.expr, count, model);
      }
      emit(tally, count, stmt.range.begin.line);
      break;
    }
    case StmtKind::If: {
      OpTally condTally;
      tallyExpr(*stmt.expr, condTally, false);
      emit(condTally, count, stmt.range.begin.line);
      // Source-only baseline: both branches assumed taken (PBound
      // computes upper bounds).
      if (stmt.thenBranch)
        walk(*stmt.thenBranch, domain, extra);
      if (stmt.elseBranch)
        walk(*stmt.elseBranch, domain, extra);
      break;
    }
    case StmtKind::For: {
      sema::LoopInfo info = sema::analyzeForLoop(stmt);
      // Loop-control overhead per iteration.
      OpTally header;
      header.comparisons = 1;
      header.intOps = 1;
      if (info.recognized) {
        IterationDomain inner = domain;
        LoopLevel level;
        level.var = info.var;
        level.lowerBounds.push_back(info.lowerBound);
        level.upperBounds.push_back(info.upperBound);
        level.step = info.step;
        inner.levels.push_back(level);
        auto res = polyhedral::countIterations(inner);
        if (!res.requiresAnnotation) {
          emit(header, countOf(inner, extra), stmt.range.begin.line);
          if (stmt.loopBody)
            walk(*stmt.loopBody, inner, extra);
          break;
        }
      }
      model.exact = false;
      model.notes.push_back("source-only: loop at line " +
                            std::to_string(stmt.range.begin.line) +
                            " counted via parameter");
      Expr per = Expr::param("iters_" + std::to_string(stmt.range.begin.line));
      emit(header, count * per, stmt.range.begin.line);
      if (stmt.loopBody)
        walk(*stmt.loopBody, domain, extra * per);
      break;
    }
    case StmtKind::While: {
      model.exact = false;
      Expr per = Expr::param("iters_" + std::to_string(stmt.range.begin.line));
      OpTally header;
      tallyExpr(*stmt.forCond, header, false);
      emit(header, count * per, stmt.range.begin.line);
      if (stmt.loopBody)
        walk(*stmt.loopBody, domain, extra * per);
      break;
    }
    case StmtKind::Empty:
      break;
    }
  }

  Expr countOf(const IterationDomain &domain, const Expr &extra) {
    auto res = polyhedral::countIterations(domain);
    return res.count * extra;
  }

  void emit(const OpTally &tally, const Expr &count, std::uint32_t line) {
    if (tally.empty())
      return;
    CountStep step;
    step.multiplier = count;
    step.opcodes = tally.toOpcodes();
    step.comment = "source ops at line " + std::to_string(line);
    model.counts.push_back(std::move(step));
  }
};

} // namespace

model::PerformanceModel generateSourceOnlyModel(
    const frontend::TranslationUnit &unit, const sema::CallGraph &callGraph,
    DiagnosticEngine &diags) {
  (void)diags;
  model::PerformanceModel out;
  out.sourceFile = unit.fileName + " (source-only baseline)";

  const std::vector<const FunctionDecl *> functions = unit.allFunctions();
  for (std::uint32_t f : callGraph.order) {
    const FunctionDecl *fn = functions[f];
    FunctionModel fm;
    fm.sourceName = fn->qualifiedName();
    fm.modelName = fn->modelName() + "_srconly";
    for (const auto &p : fn->params)
      fm.paramNames.push_back(p.name);
    Walker walker{fm};
    walker.walk(*fn->bodyStmt, IterationDomain{}, Expr::intConst(1));
    out.functions.push_back(std::move(fm));
  }
  return out;
}

} // namespace mira::baseline
